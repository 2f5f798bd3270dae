//! The traced run: the program's query walk and indexing session
//! rebuilt from its public parts, with a timer around every call into a
//! layer. Separate from the timed runs; the difference between the two
//! is the tracing overhead. Every rebuilt path must return what the
//! program's own path returns (score bits, lookups, postings, index
//! counts, migration volume), or the run fails.
//!
//! Query layers: `plan` (`QueryPlan`), `global_index`
//! (`GlobalIndex::lookup_many`), `ranker` (`ScoreAccumulator`), and
//! `exec`, the program's own `QueryService::query` time the layers
//! above leave unexplained. On `serve_zipf` also `serve.http` (the HTTP
//! round trip beyond a direct query), `serve.net` (`lookup_many` over
//! the peer processes beyond the same keys on an in-process twin) and
//! `serve.codec` (the lookup frames the tier carries, encoded and
//! decoded). Indexing layers: `local_indexer` (`LocalPeer::compute_round`),
//! `compressed` (`CompressedPostings::from_list_with`), `global_index`
//! (`insert_round`, `classify_round`), `overlay` (`add_peers`) and
//! `store` (`sync_storage` and segment-log bytes).

use crate::check::{Answer, Reference};
use crate::common::{parse_answer, HttpClient, Metrics, K};
use crate::workloads::{check_round, grow, limits, long, serve, Query, RunResult};
use hdk_core::serve::codec::{IndexRequest, IndexResponse};
use hdk_core::{
    build_entry_store, derive_query_id, GlobalIndex, HdkConfig, HdkNetwork, IndexStore, Key,
    KeyLookup, LocalPeer, NodeOutcome, OverlayKind, QueryPlan, QueryService, WireRequest,
    WireResponse,
};
use hdk_corpus::{Collection, DocId, Document, FrequencyStats};
use hdk_ir::{CompressedPostings, ScoreAccumulator};
use hdk_p2p::{
    stripe_of, Addressed, HotConfig, InProc, PGrid, PeerId, Request, Response, WIRE_HEADER_BYTES,
};
use hdk_text::TermId;
use std::collections::HashSet;
use std::path::Path;
use std::time::{Duration, Instant};

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Time and counts accumulated over the traced queries.
#[derive(Default)]
struct QuerySpans {
    queries: u64,
    own_ns: u64,
    plan_ns: u64,
    keys: u64,
    lookup_ns: u64,
    levels: u64,
    found: u64,
    accumulate_ns: u64,
    postings: u64,
    top_k_ns: u64,
    http_ns: u64,
    twin_lookup_ns: u64,
    rpcs: u64,
    encode_ns: u64,
    decode_ns: u64,
    frames: u64,
    frame_bytes: u64,
}

/// One level of a traced walk: the probed keys and what came back.
struct Level {
    keys: Vec<Key>,
    found: Vec<Option<KeyLookup>>,
}

/// `QueryExecutor::run`'s walk, uncached, from public parts.
fn traced_walk(
    service: &QueryService,
    from: PeerId,
    terms: &[TermId],
    s: &mut QuerySpans,
) -> (Answer, Vec<Level>) {
    let (num_docs, avg_doc_len) = (service.num_docs(), service.avg_doc_len());
    let t = Instant::now();
    let plan = QueryPlan::new(terms, service.config().smax);
    s.plan_ns += ns_since(t);
    let query_id = derive_query_id(from, terms, 0);
    let index = service.index();
    let mut acc = ScoreAccumulator::new(num_docs, avg_doc_len);
    let (mut lookups, mut postings) = (0u32, 0u64);
    let mut frontier: Vec<Key> = Vec::new();
    let mut ndk_terms: Vec<TermId> = Vec::new();
    let mut levels = Vec::new();
    for level in 1..=plan.max_level() {
        let t = Instant::now();
        let nodes = if level == 1 {
            plan.level_one()
        } else {
            plan.expand(&frontier, &ndk_terms)
        };
        s.plan_ns += ns_since(t);
        if nodes.is_empty() {
            break;
        }
        s.keys += nodes.len() as u64;
        let t = Instant::now();
        let found = index.lookup_many(from, query_id, &nodes);
        s.lookup_ns += ns_since(t);
        s.levels += 1;
        let mut next = Vec::new();
        for (key, lookup) in nodes.iter().zip(&found) {
            lookups += 1;
            let outcome = match lookup {
                None => NodeOutcome::Absent,
                Some(l) if l.is_ndk => NodeOutcome::Ndk,
                Some(_) => NodeOutcome::Hdk,
            };
            if let Some(l) = lookup {
                s.found += 1;
                postings += l.postings.len() as u64;
                let t = Instant::now();
                acc.accumulate_block(l.df, &l.postings);
                s.accumulate_ns += ns_since(t);
            }
            if !outcome.is_terminal() {
                next.push(*key);
                if level == 1 {
                    ndk_terms.push(key.terms().next().expect("singles have one term"));
                }
            }
        }
        levels.push(Level { keys: nodes, found });
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    drop(index);
    let t = Instant::now();
    let results = acc.into_top_k(K);
    s.top_k_ns += ns_since(t);
    s.postings += postings;
    let answer = Answer {
        results: results
            .iter()
            .map(|r| (r.doc.0, r.score.to_bits()))
            .collect(),
        lookups,
        postings,
    };
    (answer, levels)
}

/// One peer process's share of a level: its keys and their lookups.
type ProcFrames = (Vec<Addressed<Key>>, Vec<Option<KeyLookup>>);

/// Encodes and decodes the lookup frames the serving tier carries for
/// `levels`: per level, one request and one response per peer process
/// owning a probed key.
fn codec_frames(levels: &[Level], from: PeerId, query_id: u64, s: &mut QuerySpans) {
    for level in levels {
        let mut per_proc: Vec<ProcFrames> =
            (0..serve::NPROCS).map(|_| Default::default()).collect();
        for (key, found) in level.keys.iter().zip(&level.found) {
            let route = key.dht_hash();
            let (keys, results) = &mut per_proc[stripe_of(route) % serve::NPROCS];
            keys.push(Addressed { route, body: *key });
            results.push(found.clone());
        }
        for (keys, results) in per_proc.into_iter().filter(|(k, _)| !k.is_empty()) {
            s.rpcs += 1;
            let request: IndexRequest = Request::LookupMany {
                from,
                query_id,
                keys,
            };
            let response: IndexResponse = Response::Found { results };
            let t = Instant::now();
            let request = WireRequest::Rpc(request).encode();
            let response = WireResponse::Rpc(response).encode();
            s.encode_ns += ns_since(t);
            let t = Instant::now();
            let decoded = (
                WireRequest::decode(&request),
                WireResponse::decode(&response),
            );
            s.decode_ns += ns_since(t);
            assert!(
                decoded.0.is_ok() && decoded.1.is_ok(),
                "a lookup frame does not decode"
            );
            s.frames += 2;
            s.frame_bytes += (request.len() + response.len() + 2 * WIRE_HEADER_BYTES) as u64;
        }
    }
}

/// What `serve_zipf`'s served layers are traced through: the HTTP
/// connection, each query's request target, and the in-process twin.
struct Served<'a> {
    client: &'a mut HttpClient,
    targets: &'a [String],
    twin: &'a QueryService,
}

/// Traces one query; panics unless every path agrees with the program.
fn trace_query(
    service: &QueryService,
    (from, terms): &Query,
    served: Option<(&mut Served<'_>, usize)>,
    s: &mut QuerySpans,
) -> Answer {
    let t = Instant::now();
    let own = service.query(*from, terms, K);
    s.own_ns += ns_since(t);
    let own = Answer::from_outcome(&own);
    s.queries += 1;
    let (rebuilt, levels) = traced_walk(service, *from, terms, s);
    assert_eq!(
        rebuilt, own,
        "{terms:?}: the rebuilt walk differs from QueryService::query"
    );
    let query_id = derive_query_id(*from, terms, 0);
    if let Some((served, i)) = served {
        let t = Instant::now();
        let (status, body) = served.client.get(&served.targets[i]);
        s.http_ns += ns_since(t);
        assert_eq!(status, 200, "{terms:?}: HTTP status {status}");
        assert_eq!(
            parse_answer(&body),
            own,
            "{terms:?}: the HTTP answer differs"
        );
        let index = served.twin.index();
        for level in &levels {
            let t = Instant::now();
            let local = index.lookup_many(*from, query_id, &level.keys);
            s.twin_lookup_ns += ns_since(t);
            let same = local.iter().zip(&level.found).all(|(a, b)| match (a, b) {
                (None, None) => true,
                (Some(a), Some(b)) => {
                    a.df == b.df
                        && a.is_ndk == b.is_ndk
                        && a.postings.as_bytes() == b.postings.as_bytes()
                }
                _ => false,
            });
            assert!(
                same,
                "{terms:?}: the peer processes and the in-process twin disagree"
            );
        }
    }
    codec_frames(&levels, *from, query_id, s);
    own
}

/// Traced passes over `queries` until `seconds` have passed (at least
/// one); checks the first pass's answers.
fn trace_rounds(
    label: &str,
    service: &QueryService,
    queries: &[Query],
    reference: &Reference<'_>,
    seconds: u64,
    mut served: Option<Served<'_>>,
) -> QuerySpans {
    let mut s = QuerySpans::default();
    let started = Instant::now();
    let mut first = true;
    while first || started.elapsed() < Duration::from_secs(seconds) {
        let answers: Vec<Answer> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| trace_query(service, q, served.as_mut().map(|sv| (sv, i)), &mut s))
            .collect();
        if first {
            check_round(label, reference, service, queries, &answers);
            first = false;
        }
    }
    s
}

fn query_metrics(s: &QuerySpans, served: bool, m: &mut Metrics) {
    let q = s.queries as f64;
    let us = |ns: u64| ns as f64 / 1e3 / q;
    m.set("plan.us_per_query", us(s.plan_ns));
    m.set("plan.keys_per_query", s.keys as f64 / q);
    m.set("global_index.lookup_many_us_per_query", us(s.lookup_ns));
    m.set("global_index.levels_per_query", s.levels as f64 / q);
    m.set(
        "global_index.found_per_probe",
        s.found as f64 / s.keys as f64,
    );
    m.set("ranker.accumulate_us_per_query", us(s.accumulate_ns));
    m.set(
        "ranker.ns_per_posting",
        s.accumulate_ns as f64 / s.postings.max(1) as f64,
    );
    m.set("ranker.top_k_us_per_query", us(s.top_k_ns));
    let layers = s.plan_ns + s.lookup_ns + s.accumulate_ns + s.top_k_ns;
    m.set(
        "exec.unattributed_us_per_query",
        (s.own_ns as f64 - layers as f64) / 1e3 / q,
    );
    let (http, net, rpcs) = if served {
        (
            (s.http_ns as f64 - s.own_ns as f64) / 1e3 / q,
            (s.lookup_ns as f64 - s.twin_lookup_ns as f64) / 1e3 / q,
            s.rpcs as f64 / q,
        )
    } else {
        (0.0, 0.0, 0.0)
    };
    m.set("serve.http.us_per_query", http);
    m.set("serve.net.us_per_query", net);
    m.set("serve.net.rpcs_per_query", rpcs);
    m.set(
        "serve.codec.encode_ns_per_frame",
        s.encode_ns as f64 / s.frames as f64,
    );
    m.set(
        "serve.codec.decode_ns_per_frame",
        s.decode_ns as f64 / s.frames as f64,
    );
    m.set(
        "serve.codec.frame_bytes_per_query",
        s.frame_bytes as f64 / q,
    );
}

/// Time and counts accumulated over rebuilt indexing sessions.
#[derive(Default)]
struct IndexSpans {
    docs: u64,
    compute_ns: u64,
    candidate_postings: u64,
    encode_ns: u64,
    insert_ns: u64,
    classify_ns: u64,
    joins: u64,
    migrated: u64,
    sync_ns: u64,
    disk_bytes: u64,
    stored_postings: u64,
}

/// An empty global index as `HdkNetwork::build` makes it, in process.
fn new_index(config: &HdkConfig, peers: usize) -> GlobalIndex {
    let overlay = Box::new(PGrid::new((0..peers as u64).map(PeerId).collect()));
    let store = IndexStore::new(config.dfmax);
    let backend: hdk_core::IndexBackend = match build_entry_store(&config.store) {
        None => Box::new(InProc::replicated(overlay, store, config.replication)),
        Some(entries) => Box::new(InProc::with_store(
            overlay,
            store,
            config.replication,
            entries,
        )),
    };
    let mut index = GlobalIndex::with_backend(backend, config.dfmax);
    index.set_hot_config(HotConfig {
        threshold: config.hot_threshold,
        extra: config.hot_extra,
    });
    index
}

/// `IndexService`'s indexing session (redundancy filtering on), from
/// public parts.
fn session(
    index: &GlobalIndex,
    peers: &mut [LocalPeer],
    config: &HdkConfig,
    excluded: &HashSet<TermId>,
    s: &mut IndexSpans,
) {
    assert!(
        config.redundancy_filtering,
        "the rebuilt session covers redundancy filtering only"
    );
    peers.sort_unstable_by_key(|p| p.id);
    for round in 1..=config.smax {
        let mut batches = Vec::with_capacity(peers.len());
        for peer in peers.iter() {
            let t = Instant::now();
            let candidates = peer.compute_round(round, config, excluded);
            s.compute_ns += ns_since(t);
            let mut batch: Vec<(Key, CompressedPostings)> = Vec::with_capacity(candidates.len());
            for (key, postings) in candidates.into_iter().filter(|(_, p)| !p.is_empty()) {
                s.candidate_postings += postings.len() as u64;
                let t = Instant::now();
                let block = CompressedPostings::from_list_with(&postings, config.codec);
                s.encode_ns += ns_since(t);
                batch.push((key, block));
            }
            batch.sort_unstable_by_key(|(key, _)| *key);
            batches.push((peer.id, batch));
        }
        let t = Instant::now();
        let mut already_ndk = index.insert_round(batches);
        s.insert_ns += ns_since(t);
        let t = Instant::now();
        let mut notifications = index.classify_round(round);
        s.classify_ns += ns_since(t);
        if round == config.smax {
            break;
        }
        for peer in peers.iter_mut() {
            let mut keys = notifications.remove(&peer.id).unwrap_or_default();
            keys.extend(already_ndk.remove(&peer.id).unwrap_or_default());
            keys.sort_unstable();
            keys.dedup();
            peer.receive_notifications(round, &keys);
        }
        if peers.iter().all(|p| p.ndk_keys(round).is_empty()) {
            break;
        }
    }
    for peer in peers.iter_mut() {
        peer.finish_session();
    }
}

fn doc_tokens(collection: &Collection, docs: &[DocId]) -> Vec<(DocId, Vec<TermId>)> {
    docs.iter()
        .map(|&d| (d, collection.doc(d).tokens.clone()))
        .collect()
}

/// Rebuilds the first indexing session of `HdkNetwork::build`.
fn rebuild_build(
    collection: &Collection,
    partitions: &[Vec<DocId>],
    config: &HdkConfig,
    s: &mut IndexSpans,
) -> (GlobalIndex, Vec<LocalPeer>) {
    let excluded: HashSet<TermId> = FrequencyStats::compute(collection)
        .very_frequent_terms(config.ff)
        .into_iter()
        .collect();
    let mut peers: Vec<LocalPeer> = partitions
        .iter()
        .enumerate()
        .map(|(i, docs)| LocalPeer::new(PeerId(i as u64), doc_tokens(collection, docs)))
        .collect();
    let index = new_index(config, partitions.len());
    session(&index, &mut peers, config, &excluded, s);
    s.docs += collection.len() as u64;
    (index, peers)
}

/// Seals the rebuilt index and records its store figures.
fn finish_store(index: &GlobalIndex, s: &mut IndexSpans) {
    let t = Instant::now();
    index.sync_storage();
    s.sync_ns += ns_since(t);
    s.disk_bytes = index.sealed_segment_bytes();
    s.stored_postings = index.index_counts().total_postings();
}

/// The indexing metrics: the local indexer and block encoding from
/// `build`'s sessions, the global-index rounds, the joins and the store
/// from `writes`'.
fn index_metrics(build: &IndexSpans, writes: &IndexSpans, m: &mut Metrics) {
    let docs = build.docs as f64;
    m.set(
        "local_indexer.us_per_doc",
        build.compute_ns as f64 / 1e3 / docs,
    );
    m.set(
        "local_indexer.candidate_postings_per_doc",
        build.candidate_postings as f64 / docs,
    );
    m.set(
        "compressed.encode_ns_per_posting",
        build.encode_ns as f64 / build.candidate_postings as f64,
    );
    let s = writes;
    let docs = s.docs as f64;
    m.set(
        "global_index.insert_round_us_per_doc",
        s.insert_ns as f64 / 1e3 / docs,
    );
    m.set(
        "global_index.classify_round_us_per_doc",
        s.classify_ns as f64 / 1e3 / docs,
    );
    m.set(
        "overlay.migrated_postings_per_join",
        if s.joins == 0 {
            0.0
        } else {
            s.migrated as f64 / s.joins as f64
        },
    );
    m.set(
        "store.disk_bytes_per_posting",
        s.disk_bytes as f64 / s.stored_postings as f64,
    );
    m.set("store.sync_ms", s.sync_ns as f64 / 1e6);
}

fn result(spans: &QuerySpans, metrics: Metrics, steal: f64) -> RunResult {
    RunResult {
        attempted: spans.queries,
        failed: 0,
        metrics,
        steal,
    }
}

pub fn serve(peer_bin: &Path, seed: u64, seconds: u64) -> RunResult {
    let tier = serve::setup(peer_bin, seed);
    let mut client = HttpClient::connect(tier.http.addr());
    let (_, failed) = serve::http_round(&tier, &mut client, &mut Vec::new());
    assert_eq!(failed, 0, "warm-up requests failed");
    let twin = HdkNetwork::build(
        &tier.collection,
        &tier.partitions,
        tier.config.clone(),
        OverlayKind::PGrid,
    );
    let twin = twin.query_service();

    let mut ix = IndexSpans::default();
    let (index, _) = rebuild_build(&tier.collection, &tier.partitions, &tier.config, &mut ix);
    assert_eq!(
        index.index_counts(),
        tier.service.index().index_counts(),
        "the rebuilt session differs from the serving tier's build"
    );
    finish_store(&index, &mut ix);

    let reference = Reference::new(&tier.collection, limits(&tier.config));
    let host = crate::sys::HostCpu::now();
    let spans = trace_rounds(
        "serve_zipf",
        &tier.service,
        &tier.queries,
        &reference,
        seconds,
        Some(Served {
            client: &mut client,
            targets: &tier.targets,
            twin: &twin,
        }),
    );
    let steal = crate::sys::HostCpu::now().steal_since(&host);
    let mut m = Metrics::default();
    query_metrics(&spans, true, &mut m);
    index_metrics(&ix, &ix, &mut m);
    drop(client);
    serve::teardown(tier);
    result(&spans, m, steal)
}

/// On `query_long` the build-side layers come from its own build; the
/// write-side layers (global-index rounds, joins, store) from
/// `grow_segment`'s growth over the segment store, which `query_long`,
/// on the memory store with no joins, does not exercise.
pub fn long(seed: u64, seconds: u64, work_dir: &Path) -> RunResult {
    let net = long::setup(seed);
    let mut ix = IndexSpans::default();
    let (index, _) = rebuild_build(&net.collection, &net.partitions, &net.config, &mut ix);
    assert_eq!(
        index.index_counts(),
        net.service.index().index_counts(),
        "the rebuilt session differs from HdkNetwork::build"
    );
    drop(index);
    let (growth, _) = traced_growth(&grow::inputs(seed, work_dir.join("trace-own")), work_dir);
    let reference = Reference::new(&net.collection, limits(&net.config));
    let host = crate::sys::HostCpu::now();
    let spans = trace_rounds(
        "query_long",
        &net.service,
        &net.queries,
        &reference,
        seconds,
        None,
    );
    let steal = crate::sys::HostCpu::now().steal_since(&host);
    let mut m = Metrics::default();
    query_metrics(&spans, false, &mut m);
    index_metrics(&ix, &growth, &mut m);
    result(&spans, m, steal)
}

/// `grow_segment`'s growth twice: through `IndexService::join_peers`,
/// and rebuilt with every wave's session traced (the first session is
/// the set-up and is not). Checks that both give the same index counts
/// and migration volume; returns the traced spans, with the rebuilt
/// index synced, and the program's grown network, synced.
fn traced_growth(inputs: &grow::Inputs, work_dir: &Path) -> (IndexSpans, HdkNetwork) {
    let mut network = grow::boot(inputs);
    let own_migrated: u64 = inputs
        .waves
        .iter()
        .map(|wave| {
            network
                .join_peers(wave.clone())
                .iter()
                .map(|m| m.postings_moved)
                .sum::<u64>()
        })
        .sum();

    let mut rebuilt_config = inputs.config.clone();
    rebuilt_config.store = hdk_core::StoreConfig::Segment {
        dir: Some(work_dir.join("trace-rebuilt")),
        hot_bytes: grow::HOT_BYTES,
    };
    let (mut index, mut peers) = rebuild_build(
        &inputs.collection.prefix(grow::INIT_DOCS),
        &inputs.partitions,
        &rebuilt_config,
        &mut IndexSpans::default(),
    );
    let excluded: HashSet<TermId> = HashSet::new();
    assert_eq!(rebuilt_config.ff, u64::MAX, "no term is excluded");
    let mut ix = IndexSpans::default();
    for wave in &inputs.waves {
        let stats = index.add_peers(wave.iter().map(|(p, _)| *p).collect());
        ix.joins += wave.len() as u64;
        ix.migrated += stats.iter().map(|m| m.postings_moved).sum::<u64>();
        for (peer, docs) in wave {
            let mut joiner = LocalPeer::new(*peer, Vec::new());
            joiner.add_documents(
                docs.iter()
                    .map(|d: &Document| (d.id, d.tokens.clone()))
                    .collect(),
            );
            peers.push(joiner);
        }
        session(&index, &mut peers, &rebuilt_config, &excluded, &mut ix);
        ix.docs += wave.iter().map(|(_, docs)| docs.len() as u64).sum::<u64>();
    }
    finish_store(&index, &mut ix);
    assert_eq!(
        ix.migrated, own_migrated,
        "the rebuilt joins migrate other volumes"
    );
    assert_eq!(
        index.index_counts(),
        network.query_service().index().index_counts(),
        "the rebuilt growth differs from IndexService::join_peers"
    );
    network.sync_storage();
    (ix, network)
}

pub fn grow(seed: u64, seconds: u64, work_dir: &Path) -> RunResult {
    let inputs = grow::inputs(seed, work_dir.join("trace-own"));
    let (ix, network) = traced_growth(&inputs, work_dir);
    let service = network.query_service();

    let queries = grow::live_queries(&inputs, grow::INIT_PEERS + grow::WAVES * grow::WAVE_PEERS);
    let reference = Reference::new(&inputs.collection, limits(&inputs.config));
    let host = crate::sys::HostCpu::now();
    let spans = trace_rounds(
        "grow_segment",
        &service,
        &queries,
        &reference,
        seconds,
        None,
    );
    let steal = crate::sys::HostCpu::now().steal_since(&host);
    let mut m = Metrics::default();
    query_metrics(&spans, false, &mut m);
    index_metrics(&ix, &ix, &mut m);
    result(&spans, m, steal)
}
