//! `serve`: independent users of the HTTP service, as an open loop.
//!
//! An in-process `serve::Server` with one worker per core serves a
//! Restaurant artifact. The load generator sends a seeded arrival schedule
//! over at most one keep-alive connection per core: a Zipf-distributed hot
//! set of repeated `/synthesize` requests (response-cache hits), unique-seed
//! cold requests (misses that synthesize), and a `/metrics` scrape every
//! second. Every request is timed from when it was due, so a stall delays
//! the requests queued behind it. The artifact is republished (write to a
//! temporary file, then rename) on a fixed period, alternating between two
//! fitted versions, so swaps purge the cache and rematerialize replicas.

use crate::layers::{insert_persist, replay_costs, CallCounts};
use crate::online::{fidelity_jsd, fit_artifact, Artifact, ARTIFACT_SEED};
use crate::report::Report;
use crate::stats::{derive_seed, fnv1a64, median, percentile, tail};
use crate::sys::{nproc, peak_rss_mb, WorkDir};
use crate::trace::{SpanRec, Tracer, REPLAY_REQ, SETUP_REQ};
use crate::RunCfg;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serd::api::{self, ModelRef, SynthesisRequest, Table};
use serd::SynthesizedEr;
use serve::client::Conn;
use serve::{ServeConfig, Server};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const MODEL: &str = "restaurant";
/// How long before a request's due time the sender stops sleeping and spins.
const SPIN_WINDOW: Duration = Duration::from_micros(300);
const STREAM_SCHEDULE: u64 = 21;
const STREAM_HOT: u64 = 22;
const STREAM_COLD: u64 = 23;
const STREAM_REPLAY: u64 = 24;

#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Restaurant scale of the served artifact.
    pub scale: f64,
    pub setup_reps: usize,
    /// `/synthesize` arrivals per second.
    pub rate_per_s: f64,
    /// Distinct hot requests per republish period and their Zipf exponent.
    pub hot_keys: usize,
    pub zipf_s: f64,
    /// Share of arrivals that are unique-seed cold requests.
    pub cold_frac: f64,
    /// `n_a = n_b` of every `/synthesize` request.
    pub n: usize,
    /// Seconds between artifact republishes.
    pub republish_s: f64,
    /// Latency limit (from due time) a response must meet to count as good.
    pub limit_ms: f64,
    /// Responses re-synthesized through `api::synthesize` and byte-compared.
    pub verify: usize,
    pub replay_steps: usize,
    pub s3_passes: usize,
}

/// The benchmark's traffic. Where each figure comes from:
pub const FULL: Sizes = Sizes {
    scale: 0.02,
    // A set-up round fits, saves and reloads both versions: about 0.2 s.
    setup_reps: 15,
    // 30 s at 50/s is 1,500 requests, enough for 10 samples beyond p99.
    rate_per_s: 50.0,
    // Re-rendering 4 hot keys after a republish (4 misses of about 0.3 s
    // on 2 workers) takes well under a tenth of the republish period.
    hot_keys: 4,
    // Zipf's law in its classic form, s = 1.
    zipf_s: 1.0,
    // Misses use about half of 2 workers (5 misses of ~0.35 s every 2 s,
    // hot re-renders included). `bench_serve`'s one cold request in ten
    // overloads them: median latency from due time reached 0.3-3.6 s.
    cold_frac: 0.05,
    // Small requests of 10 + 10 entities.
    n: 10,
    // Well above the hot set's re-render time; a 30 s run sees 2 swaps.
    republish_s: 10.0,
    // About twice a slow miss's service time (p75 0.40-0.51 s).
    limit_ms: 1000.0,
    verify: 16,
    replay_steps: 300,
    s3_passes: 5,
};

pub const TINY: Sizes = Sizes {
    scale: 0.02,
    setup_reps: 1,
    rate_per_s: 20.0,
    hot_keys: 3,
    zipf_s: 1.1,
    cold_frac: 0.1,
    n: 4,
    republish_s: 0.5,
    // Debug builds render a miss in seconds; the smoke run checks outputs.
    limit_ms: 60_000.0,
    verify: 4,
    replay_steps: 5,
    s3_passes: 1,
};

/// What an arrival asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Hot-set request of republish period `.0`, Zipf rank `.1`.
    Hot(u64, usize),
    /// A unique cold request with this seed.
    Cold(u64),
    /// A `/metrics` scrape.
    Metrics,
}

/// One scheduled request: due `due_ns` after the run starts. Hot keys are
/// `(period, rank)`: the hot set shifts at every republish, which purges
/// the response cache anyway, so a run samples many hot requests' costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub due_ns: u64,
    pub kind: Kind,
}

/// The arrival schedule of one run, a function of the workload seed alone:
/// `rate_per_s × seconds` `/synthesize` arrivals at uniformly random times
/// (a Poisson process conditioned on its count, so every run offers the
/// same load), of which `cold_frac` are unique-seed cold requests and the
/// rest Zipf draws over the hot set, plus a `/metrics` scrape at every
/// whole second.
pub fn schedule(seed: u64, seconds: f64, sizes: &Sizes) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, STREAM_SCHEDULE, 0));
    let weights: Vec<f64> = (0..sizes.hot_keys)
        .map(|k| 1.0 / ((k + 1) as f64).powf(sizes.zipf_s))
        .collect();
    let total: f64 = weights.iter().sum();
    let count = (sizes.rate_per_s * seconds).round() as usize;
    let colds = (sizes.cold_frac * count as f64).round() as usize;
    let mut cold_slots = vec![false; count];
    for slot in cold_slots.iter_mut().take(colds) {
        *slot = true;
    }
    cold_slots.shuffle(&mut rng);
    let mut due: Vec<u64> = (0..count)
        .map(|_| (rng.gen::<f64>() * seconds * 1e9) as u64)
        .collect();
    due.sort_unstable();
    let mut out = Vec::with_capacity(count + seconds as usize);
    let mut cold = 0u64;
    for (due_ns, is_cold) in due.into_iter().zip(cold_slots) {
        let kind = if is_cold {
            cold += 1;
            Kind::Cold(derive_seed(seed, STREAM_COLD, cold))
        } else {
            let mut x = rng.gen::<f64>() * total;
            let mut k = 0;
            while k + 1 < weights.len() && x >= weights[k] {
                x -= weights[k];
                k += 1;
            }
            Kind::Hot((due_ns as f64 / 1e9 / sizes.republish_s) as u64, k)
        };
        out.push(Arrival { due_ns, kind });
    }
    let mut s = 1u64;
    while (s as f64) < seconds {
        out.push(Arrival {
            due_ns: s * 1_000_000_000,
            kind: Kind::Metrics,
        });
        s += 1;
    }
    out.sort_by_key(|a| a.due_ns);
    out
}

fn request_seed(seed: u64, kind: Kind) -> Option<u64> {
    match kind {
        Kind::Hot(period, k) => Some(derive_seed(seed, STREAM_HOT, period << 16 | k as u64)),
        Kind::Cold(s) => Some(s),
        Kind::Metrics => None,
    }
}

fn synth_request(seed: u64, n: usize) -> SynthesisRequest {
    SynthesisRequest {
        seed,
        n_a: Some(n),
        n_b: Some(n),
        ..SynthesisRequest::new(ModelRef::Name(MODEL.to_string()))
    }
}

/// One completed (or failed) request, as the client saw it.
struct Outcome {
    idx: usize,
    due: Instant,
    sent: Instant,
    done: Instant,
    status: u16,
    cache: Option<String>,
    etag: Option<String>,
    body: String,
}

/// What every sender thread shares: the schedule, its start, and the next
/// arrival not yet taken.
#[derive(Clone, Copy)]
struct Load<'a> {
    addr: std::net::SocketAddr,
    plan: &'a [Arrival],
    next: &'a AtomicUsize,
    t0: Instant,
    seed: u64,
    n: usize,
}

/// One connection's sender: takes arrivals in due order, waits for each
/// one's due time, sends it and records what came back.
fn sender(load: &Load<'_>, tracer: Tracer) -> (Vec<Outcome>, Vec<SpanRec>, u64) {
    let Load {
        addr,
        plan,
        next,
        t0,
        seed,
        n,
    } = *load;
    let mut conn = Conn::new(addr);
    let mut out = Vec::new();
    loop {
        let idx = next.fetch_add(1, Ordering::SeqCst);
        let Some(a) = plan.get(idx) else { break };
        let due = t0 + Duration::from_nanos(a.due_ns);
        // Sleep to just short of the due time, then spin: timer slack would
        // otherwise add tens of microseconds to every sub-millisecond hit.
        let now = Instant::now();
        if now + SPIN_WINDOW < due {
            std::thread::sleep(due - now - SPIN_WINDOW);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let path = match request_seed(seed, a.kind) {
            Some(s) => {
                format!("/synthesize?model={MODEL}&seed={s}&n_a={n}&n_b={n}&format=csv&table=a")
            }
            None => "/metrics".to_string(),
        };
        let _span = tracer.span("http.request", idx as u64);
        let sent = Instant::now();
        let resp = conn.get(&path);
        let done = Instant::now();
        out.push(match resp {
            Ok(r) => Outcome {
                idx,
                due,
                sent,
                done,
                status: r.status,
                cache: r.header("x-cache").map(str::to_string),
                etag: r.header("x-model-etag").map(str::to_string),
                body: r.body,
            },
            Err(e) => Outcome {
                idx,
                due,
                sent,
                done,
                status: 0,
                cache: None,
                etag: None,
                body: e.to_string(),
            },
        });
    }
    (out, tracer.into_spans(), conn.connections())
}

/// Writes `bytes` as the served artifact: temporary file, then rename.
fn publish(dir: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = dir.join(format!(".{MODEL}.serd.tmp"));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, dir.join(format!("{MODEL}.serd")))
}

/// The largest number of requests that were due but not yet sent.
fn max_backlog(outcomes: &[Outcome]) -> usize {
    let mut events: Vec<(Instant, i64)> = Vec::with_capacity(outcomes.len() * 2);
    for o in outcomes {
        events.push((o.due, 1));
        events.push((o.sent.max(o.due), -1));
    }
    events.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    let (mut cur, mut best) = (0i64, 0i64);
    for (_, d) in events {
        cur += d;
        best = best.max(cur);
    }
    best as usize
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn run(cfg: &RunCfg, sizes: &Sizes) -> Result<Report, String> {
    let mut rep = Report::default();
    let tracer = Tracer::new(cfg.trace, cfg.epoch, 0);
    let work = WorkDir::new("serve").map_err(|e| format!("work dir: {e}"))?;
    let models = work.path().join("models");
    std::fs::create_dir_all(&models).map_err(|e| format!("models dir: {e}"))?;

    // Set-up, repeated: fit the two artifact versions the run alternates
    // between, save them and reload them with `api::load_model`. Its median
    // is `setup_s`, and every repetition must give the same artifact bytes.
    let mut setup_s = Vec::new();
    let mut saves = Vec::new();
    let mut loads = Vec::new();
    let mut versions: Vec<Artifact> = Vec::new();
    let mut reproducible = true;
    for r in 0..sizes.setup_reps.max(1) {
        let t = Instant::now();
        let mut vs = Vec::new();
        for v in 0..2u64 {
            let path = work.path().join(format!("v{v}.serd"));
            let req = SETUP_REQ + 2 * r as u64 + v;
            let art = fit_artifact(sizes.scale, 16, ARTIFACT_SEED + v, &path, &tracer, req)?;
            saves.push(art.save_s);
            loads.push(art.load_s);
            vs.push(art);
        }
        setup_s.push(t.elapsed().as_secs_f64());
        if !versions.is_empty() {
            reproducible &= versions.iter().zip(&vs).all(|(a, b)| a.bytes == b.bytes);
        }
        versions = vs;
    }
    rep.check(
        "serve.setup_reproducible",
        reproducible,
        format!(
            "{} set-ups gave the same artifact bytes",
            sizes.setup_reps.max(1)
        ),
    );
    let fnvs: Vec<u64> = versions.iter().map(|a| fnv1a64(&a.bytes)).collect();
    rep.check(
        "serve.versions_differ",
        fnvs[0] != fnvs[1],
        "the two published versions differ",
    );
    for (v, f) in fnvs.iter().enumerate() {
        rep.digest(format!("serve.artifact.v{v}"), *f);
    }
    publish(&models, &versions[0].bytes).map_err(|e| format!("publish: {e}"))?;

    let workers = nproc();
    let server = Server::bind(&ServeConfig {
        models_dir: models.clone(),
        addr: "127.0.0.1:0".to_string(),
        workers,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let plan = schedule(cfg.seed, cfg.seconds, sizes);
    let next = AtomicUsize::new(0);

    let pool0 = parallel::pool_stats();
    let t0 = Instant::now();
    let mut publishes = 0u64;
    let mut materialize_ms = Vec::new();
    let load = Load {
        addr,
        plan: &plan,
        next: &next,
        t0,
        seed: cfg.seed,
        n: sizes.n,
    };
    let (outcomes, mut spans, conns) = std::thread::scope(|sc| {
        let srv = sc.spawn(|| server.run());
        let senders: Vec<_> = (0..workers as u32)
            .map(|c| {
                let load = &load;
                let (trace, epoch) = (cfg.trace, cfg.epoch);
                sc.spawn(move || sender(load, Tracer::new(trace, epoch, c + 1)))
            })
            .collect();
        // The publisher: the data owner republishing on a fixed period.
        let mut due = sizes.republish_s;
        while due < cfg.seconds {
            let wait = t0 + Duration::from_secs_f64(due);
            let now = Instant::now();
            if now < wait {
                std::thread::sleep(wait - now);
            }
            publishes += 1;
            let bytes = &versions[(publishes % 2) as usize].bytes;
            if let Err(e) = publish(&models, bytes) {
                eprintln!("serve: republish failed: {e}");
            }
            if cfg.trace {
                // First use of a fresh replica after the swap, timed on
                // this thread's own replica cache.
                if let Ok(blob) = server.cache().get(MODEL) {
                    let t = Instant::now();
                    let _g = tracer.span("serve.materialize", REPLAY_REQ + publishes);
                    let _ = serve::cache::with_worker_model(&blob, |_| ());
                    materialize_ms.push(ms(t.elapsed()));
                }
            }
            due += sizes.republish_s;
        }
        let mut outcomes = Vec::new();
        let mut spans = Vec::new();
        let mut conns = 0u64;
        for h in senders {
            let (o, s, c) = h.join().expect("sender thread panicked");
            outcomes.extend(o);
            spans.push(s);
            conns += c;
        }
        server.shutdown();
        srv.join().expect("server thread panicked");
        (outcomes, spans, conns)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let pool1 = parallel::pool_stats();
    let mut outcomes = outcomes;
    outcomes.sort_by_key(|o| o.idx);

    // Classify and check.
    let mut failed = 0u64;
    let mut lat_ms = Vec::new();
    let mut lag_ms = Vec::new();
    let (mut hit_ms, mut miss_ms) = (Vec::new(), Vec::new());
    let mut good = 0u64;
    let mut last_done = t0;
    let mut groups: BTreeMap<(u64, String), u64> = BTreeMap::new();
    let mut sizes_ok = true;
    let mut header_ok = true;
    let mut groups_ok = true;
    for o in &outcomes {
        last_done = last_done.max(o.done);
        lag_ms.push(ms(o.sent.saturating_duration_since(o.due)));
        let kind = plan[o.idx].kind;
        if o.status != 200 {
            failed += 1;
            eprintln!(
                "serve: request {} ({kind:?}) got status {}: {}",
                o.idx,
                o.status,
                o.body.lines().next().unwrap_or("")
            );
            continue;
        }
        let Some(seed) = request_seed(cfg.seed, kind) else {
            continue;
        };
        let l = ms(o.done.saturating_duration_since(o.due));
        lat_ms.push(l);
        if l <= sizes.limit_ms {
            good += 1;
        }
        let service = ms(o.done.saturating_duration_since(o.sent));
        match o.cache.as_deref() {
            Some("hit") => hit_ms.push(service),
            Some("miss") => miss_ms.push(service),
            _ => header_ok = false,
        }
        let rows = er_core::csv::parse(&o.body).map(|r| r.len()).unwrap_or(0);
        sizes_ok &= rows == sizes.n + 1;
        let etag = o.etag.clone().unwrap_or_default();
        let digest = fnv1a64(o.body.as_bytes());
        let prev = groups.entry((seed, etag)).or_insert(digest);
        groups_ok &= *prev == digest;
    }
    rep.ops("serve.all_answered_200", outcomes.len() as u64, failed);
    rep.check(
        "serve.all_scheduled_sent",
        outcomes.len() == plan.len(),
        format!("{} of {} sent", outcomes.len(), plan.len()),
    );
    rep.check(
        "serve.x_cache_header",
        header_ok,
        "every /synthesize response says hit or miss",
    );
    rep.check(
        "serve.target_sizes",
        sizes_ok,
        format!("every body has a header and {} rows", sizes.n),
    );
    rep.check(
        "serve.same_key_same_bytes",
        groups_ok,
        "one (seed, etag) never served two bodies",
    );

    // Byte-compare a spread of responses with `api::synthesize` on the
    // artifact version their X-Model-Etag names (its trailing content FNV).
    let synth_ok: Vec<&Outcome> = outcomes
        .iter()
        .filter(|o| o.status == 200 && request_seed(cfg.seed, plan[o.idx].kind).is_some())
        .collect();
    let step = (synth_ok.len() / sizes.verify.max(1)).max(1);
    let mut verified = Vec::new();
    for o in synth_ok.iter().step_by(step).take(sizes.verify) {
        let seed = request_seed(cfg.seed, plan[o.idx].kind).expect("filtered to /synthesize");
        let etag = o.etag.as_deref().unwrap_or("");
        let version = etag
            .rsplit('.')
            .next()
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .and_then(|f| fnvs.iter().position(|&x| x == f));
        let Some(v) = version else {
            rep.check(
                "serve.etag_names_a_version",
                false,
                format!("etag {etag:?}"),
            );
            continue;
        };
        let t = Instant::now();
        let resp = api::synthesize(&versions[v].synth, &synth_request(seed, sizes.n));
        let synth_s = t.elapsed().as_secs_f64();
        match resp {
            Ok(resp) => {
                let t = Instant::now();
                let body = resp.csv(Table::A);
                let render_s = t.elapsed().as_secs_f64();
                rep.check(
                    "serve.body_matches_api",
                    body == o.body,
                    format!("request {} (seed {seed}, etag {etag})", o.idx),
                );
                verified.push((v, synth_s, render_s, resp));
            }
            Err(e) => rep.check(
                "serve.body_matches_api",
                false,
                format!("re-synthesis failed: {e}"),
            ),
        }
    }
    rep.check(
        "serve.verified_some",
        !verified.is_empty(),
        "at least one body was re-synthesized",
    );
    let body_digest: Vec<u8> = outcomes
        .iter()
        .flat_map(|o| fnv1a64(o.body.as_bytes()).to_le_bytes())
        .collect();
    rep.digest("serve.bodies", fnv1a64(&body_digest));

    let run_s = last_done.duration_since(t0).as_secs_f64();
    let p50_ms = median(&lat_ms).unwrap_or(0.0);
    let (tail_p, tail_ms) = tail(&lat_ms).unwrap_or((50.0, 0.0));
    // The end-to-end rate is the median cache miss's entities per second of
    // service (send to last byte). It moves in proportion to the time a miss
    // takes; goodput moves only as requests cross the latency limit.
    let miss_rates: Vec<f64> = miss_ms
        .iter()
        .map(|m| sizes.n as f64 * 1e3 / m.max(1e-9))
        .collect();
    let entities_per_s = median(&miss_rates).unwrap_or(0.0);
    let backlog = max_backlog(&outcomes);
    rep.e2e.insert("setup_s", median(&setup_s).unwrap_or(0.0));
    rep.e2e.insert("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    rep.e2e.insert("entities_per_s", entities_per_s);
    rep.samples.push(("latency_ms", lat_ms.clone()));
    rep.samples.push(("miss_service_ms", miss_ms.clone()));
    rep.note("requests", lat_ms.len() as f64, "count");
    rep.note("req_p50_ms", p50_ms, "ms");
    rep.note(format!("req_p{tail_p}_ms"), tail_ms, "ms");
    rep.note("goodput_rps", good as f64 / run_s, "1/s");
    rep.note("offered_rps", sizes.rate_per_s, "1/s");
    rep.note("hits", hit_ms.len() as f64, "count");
    rep.note("misses", miss_ms.len() as f64, "count");
    rep.note("hit_p50_ms", median(&hit_ms).unwrap_or(0.0), "ms");
    rep.note("miss_p50_ms", median(&miss_ms).unwrap_or(0.0), "ms");
    rep.note("republishes", publishes as f64, "count");
    rep.note("swaps", server.cache().swaps() as f64, "count");
    rep.note("max_backlog", backlog as f64, "count");
    rep.note("shed", server.metrics().shed_total() as f64, "count");

    if cfg.trace {
        let counts: Vec<CallCounts> = verified
            .iter()
            .map(|(_, _, _, r)| CallCounts::from_stats(r.stats(), &r.online))
            .collect();
        let t_replay = Instant::now();
        let (v, _, _, first) = verified.first().ok_or("nothing verified to replay")?;
        let (costs, replay_spans) = replay_costs(
            &versions[*v].synth,
            &first.out,
            sizes.replay_steps,
            sizes.s3_passes,
            derive_seed(cfg.seed, STREAM_REPLAY, 0),
            cfg.epoch,
            REPLAY_REQ,
        )?;
        let replay_s = t_replay.elapsed().as_secs_f64();
        let synth_total: f64 = verified.iter().map(|(_, s, _, _)| s).sum();
        let renders: Vec<f64> = verified.iter().map(|(_, _, r, _)| r * 1e3).collect();
        let rc = server.response_cache();
        let (hits, misses) = (rc.hits() as f64, rc.misses() as f64);
        // Fidelity of the served datasets of the replayed version.
        let outs: Vec<&SynthesizedEr> = verified
            .iter()
            .filter(|(u, ..)| u == v)
            .map(|(.., r)| &r.out)
            .collect();
        let (fidelity, _) = fidelity_jsd(&versions[*v].synth, &outs, cfg.seed, &tracer);
        let main_spans = tracer.into_spans();
        let loop_spans: usize = spans.iter().map(Vec::len).sum::<usize>() + materialize_ms.len();
        let l = &mut rep.layers;
        costs.insert_layers(&counts, synth_total, l);
        insert_persist(l, &saves, &loads, versions[0].bytes.len());
        l.insert("serd.render_ms", median(&renders).unwrap_or(0.0));
        l.insert("serve.hit_ratio", hits / (hits + misses).max(1.0));
        l.insert("serve.hit_p50_ms", median(&hit_ms).unwrap_or(0.0));
        l.insert("serve.miss_p50_ms", median(&miss_ms).unwrap_or(0.0));
        l.insert(
            "serve.materialize_ms",
            median(&materialize_ms).unwrap_or(0.0),
        );
        l.insert("serve.swaps_observed", server.cache().swaps() as f64);
        l.insert("serve.shed", server.metrics().shed_total() as f64);
        l.insert(
            "serve.reqs_per_conn",
            outcomes.len() as f64 / conns.max(1) as f64,
        );
        let lag_p = crate::stats::tail_percentile(lag_ms.len()).unwrap_or(50.0);
        l.insert(
            "serve.gen_lag_p99_ms",
            percentile(&lag_ms, lag_p).unwrap_or(0.0),
        );
        l.insert("serve.max_backlog", backlog as f64);
        l.insert("serve.req_p50_ms", p50_ms);
        l.insert("serd.fidelity_jsd", fidelity);
        l.insert("serve.req_p99_ms", tail_ms);
        let spans_total = main_spans.len() + loop_spans + replay_spans.len();
        rep.insert_run_layers(
            [pool0, pool1],
            wall_s,
            spans_total,
            loop_spans,
            replay_s,
            p50_ms,
        );
        spans.push(main_spans);
        spans.push(replay_spans);
        rep.spans = spans;
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = schedule(9, 20.0, &FULL);
        let b = schedule(9, 20.0, &FULL);
        assert_eq!(a, b);
        assert_ne!(a, schedule(10, 20.0, &FULL));
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.iter().all(|x| x.due_ns < 20_000_000_000));
        let scrapes = a.iter().filter(|x| x.kind == Kind::Metrics).count();
        assert_eq!(scrapes, 19);
    }

    #[test]
    fn schedule_mix_matches_its_parameters() {
        let a = schedule(1, 30.0, &FULL);
        let synth: Vec<_> = a.iter().filter(|x| x.kind != Kind::Metrics).collect();
        // 30 s at 50/s: enough requests for a supported p99, every run.
        assert_eq!(synth.len(), 1_500);
        let cold = synth
            .iter()
            .filter(|x| matches!(x.kind, Kind::Cold(_)))
            .count();
        assert_eq!(cold, 75);
        // Zipf: the top rank is the most requested, and hot keys shift with
        // the republish period.
        let count = |k| {
            synth
                .iter()
                .filter(|x| matches!(x.kind, Kind::Hot(_, r) if r == k))
                .count()
        };
        assert!((1..FULL.hot_keys).all(|k| count(0) >= count(k)));
        for x in &synth {
            if let Kind::Hot(period, _) = x.kind {
                assert_eq!(period, (x.due_ns as f64 / 1e9 / FULL.republish_s) as u64);
            }
        }
        // Cold seeds are unique.
        let mut seeds: Vec<u64> = synth
            .iter()
            .filter_map(|x| match x.kind {
                Kind::Cold(s) => Some(s),
                _ => None,
            })
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), cold);
    }
}
