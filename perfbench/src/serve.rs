//! `serve_mix`: an in-process query daemon driven by `nproc` closed-loop
//! clients, one persistent connection each, sending a seeded mix of
//! small joins, aggregations and an occasional large join. Every answer
//! is checked against `query::run` called in-process during set-up. The
//! daemon's memory budget admits one large join at a time, so a second
//! one waits in admission.
//!
//! The traced run restarts the daemon with its per-query trace on,
//! times each request on the client side, and calls the query layers
//! in-process to time what one query of each class costs without the
//! server around it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use phj::aggregate::{aggregate, AggScheme};
use phj::plan;
use phj_memsim::NativeModel;
use phj_obs::RunReport;
use phj_server::proto::{AggRequest, JoinRequest, Request, Response, WireScheme};
use phj_server::{query, Connection, ServeConfig, Server};
use phj_storage::{Relation, RelationBuilder, Schema};
use phj_workload::{key_of_index, JoinSpec};

use crate::batch::{self, scaled};
use crate::layers::{overhead_pct, Layers};
use crate::report::{end_to_end, median, median_ms, quantile, Clock, Window};
use crate::{Args, Outcome, SETUP_REPS};

const MB: usize = 1 << 20;
const SCHEMES: [WireScheme; 3] = [
    WireScheme::Baseline,
    WireScheme::Group { g: 16 },
    WireScheme::Swp { d: 4 },
];
/// Distinct small-join inputs in the mix.
const SMALL_VARIANTS: u64 = 4;
/// Agg row counts of the mix: 40k to 60k rows.
const AGG_ROWS: [usize; 5] = [40_000, 45_000, 50_000, 55_000, 60_000];
const AGG_KEYS: usize = 2_000;
/// The classes of one block of a client's query sequence: exactly one
/// large join in ten, so every run sends the same mix.
const BLOCK: [Class; 10] = [
    Class::JoinLarge,
    Class::JoinSmall,
    Class::JoinSmall,
    Class::JoinSmall,
    Class::JoinSmall,
    Class::JoinSmall,
    Class::Agg,
    Class::Agg,
    Class::Agg,
    Class::Agg,
];

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Class {
    JoinSmall,
    Agg,
    JoinLarge,
}

/// The query mix: request shapes derived from the run's seed and scale.
struct Mix {
    seed: u64,
    small_tuples: u64,
    small_budget: u64,
    agg_rows: Vec<u64>,
    agg_keys: u64,
    large_tuples: u64,
    large_budget: u64,
}

impl Mix {
    fn new(seed: u64, scale: f64) -> Mix {
        let large = JoinSpec::pivot(scaled(16 * MB, scale));
        Mix {
            seed,
            small_tuples: ((4_000.0 * scale) as u64).max(100),
            small_budget: scaled(MB, scale) as u64,
            agg_rows: AGG_ROWS
                .iter()
                .map(|&r| ((r as f64 * scale) as u64).max(100))
                .collect(),
            agg_keys: ((AGG_KEYS as f64 * scale) as u64).clamp(10, AGG_KEYS as u64),
            large_tuples: large.build_tuples as u64,
            // Twice the build relation: the whole build side always fits,
            // so the large join runs as one out-of-cache pair.
            large_budget: 2 * (large.build_tuples * large.tuple_size) as u64,
        }
    }

    /// Number of distinct inputs of `class`.
    fn variants(&self, class: Class) -> u64 {
        match class {
            Class::JoinSmall => SMALL_VARIANTS,
            Class::Agg => self.agg_rows.len() as u64,
            Class::JoinLarge => 1,
        }
    }

    fn request(&self, class: Class, variant: u64, scheme: WireScheme) -> Request {
        let join = |build_tuples, mem_budget, seed| {
            Request::Join(JoinRequest {
                build_tuples,
                tuple_size: 100,
                matches_per_build: 2,
                pct_match: 100,
                scheme,
                mem_budget,
                seed,
                trace_id: 0,
            })
        };
        match class {
            Class::JoinSmall => join(
                self.small_tuples,
                self.small_budget,
                self.seed.wrapping_add(variant),
            ),
            Class::JoinLarge => join(self.large_tuples, self.large_budget, self.seed ^ 0x1A26E),
            Class::Agg => Request::Agg(AggRequest {
                rows: self.agg_rows[variant as usize],
                keys: self.agg_keys,
                scheme,
                mem_budget: 0,
                trace_id: 0,
            }),
        }
    }

    /// Input tuples one query of `class` joins or aggregates.
    fn tuples(&self, class: Class, variant: u64) -> u64 {
        match class {
            Class::JoinSmall => 3 * self.small_tuples,
            Class::JoinLarge => 3 * self.large_tuples,
            Class::Agg => self.agg_rows[variant as usize],
        }
    }

    fn all(&self) -> impl Iterator<Item = (Class, u64)> + '_ {
        [Class::JoinSmall, Class::Agg, Class::JoinLarge]
            .into_iter()
            .flat_map(move |c| (0..self.variants(c)).map(move |v| (c, v)))
    }
}

/// One client's seeded query sequence: blocks of [`BLOCK`], each in a
/// shuffled order, with the input variant and scheme drawn per query.
struct Sequence {
    rng: SplitMix,
    block: Vec<Class>,
}

impl Sequence {
    fn new(seed: u64, client: usize) -> Sequence {
        Sequence {
            rng: SplitMix(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(client as u64 + 1)),
            block: Vec::new(),
        }
    }

    fn next(&mut self, mix: &Mix) -> (Class, u64, WireScheme) {
        if self.block.is_empty() {
            self.block = BLOCK.to_vec();
            for i in (1..self.block.len()).rev() {
                let j = (self.rng.next() % (i as u64 + 1)) as usize;
                self.block.swap(i, j);
            }
        }
        let class = self.block.pop().expect("refilled above");
        let r = self.rng.next();
        (
            class,
            (r >> 20) % mix.variants(class),
            SCHEMES[((r >> 40) % 3) as usize],
        )
    }
}

/// `(matches, checksum)` of every distinct input, from `query::run`.
type References = HashMap<(Class, u64), (u64, u64)>;

fn references(mix: &Mix) -> Result<References, String> {
    mix.all()
        .map(|(c, v)| {
            let out = query::run(0, &mix.request(c, v, SCHEMES[1]))?;
            Ok(((c, v), (out.matches, out.checksum)))
        })
        .collect()
}

fn start_server(mix: &Mix, clients: usize, trace: bool) -> Server {
    // Room for one large join while every other client runs its next
    // largest query: nothing is refused, and a second large join waits
    // in admission for the first. Two large joins never run at once, so
    // the peak memory does not hinge on whether their allocation peaks
    // happen to coincide.
    let estimate = |c: Class| {
        (0..mix.variants(c))
            .map(|v| query::estimated_bytes(&mix.request(c, v, SCHEMES[0])))
            .max()
            .unwrap_or(0)
    };
    let others = estimate(Class::JoinSmall).max(estimate(Class::Agg));
    let cfg = ServeConfig {
        threads: clients,
        mem_budget: estimate(Class::JoinLarge) + (clients as u64 - 1) * others,
        max_queue: 4 * clients,
        max_conns: 4 * clients,
        trace,
        ..ServeConfig::default()
    };
    Server::start(cfg).expect("start the in-process query daemon on a loopback port")
}

/// Client-side and server-side timing of one traced query, microseconds.
#[derive(Default, Clone, Copy)]
struct Sample {
    send: f64,
    wait: f64,
    recv: f64,
    queue: f64,
    grant: f64,
    exec: f64,
    serialize: f64,
    response_bytes: f64,
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    w: Window,
    samples: Vec<Sample>,
    classes: Vec<Class>,
}

/// Run the closed loop for at least `seconds` and until the clients
/// together have `min_ops` answers: every client sends its next query
/// when the previous answer is in.
fn closed_loop(
    server: &Server,
    mix: &Mix,
    refs: &References,
    (seconds, min_ops): (f64, usize),
    traced: bool,
    clients: usize,
) -> (Window, Vec<Sample>, Vec<Class>) {
    let addr = server.local_addr();
    let clock = Clock::start();
    let until = Until {
        deadline: Instant::now() + Duration::from_secs_f64(seconds),
        min_ops,
        answered: AtomicUsize::new(0),
    };
    let until = &until;
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| s.spawn(move || client(addr, mix, refs, until, traced, c)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut w = Window::default();
    let (mut samples, mut classes) = (Vec::new(), Vec::new());
    for log in logs {
        w.op_ms.extend(log.w.op_ms);
        w.attempted += log.w.attempted;
        w.failed += log.w.failed;
        w.wrong += log.w.wrong;
        w.tuples += log.w.tuples;
        samples.extend(log.samples);
        classes.extend(log.classes);
    }
    clock.stop(&mut w);
    (w, samples, classes)
}

/// When the clients of one closed loop stop.
struct Until {
    deadline: Instant,
    min_ops: usize,
    /// Answers all clients have had so far.
    answered: AtomicUsize,
}

impl Until {
    fn done(&self, log: &ClientLog) -> bool {
        let enough = self.answered.load(Ordering::Relaxed) >= self.min_ops;
        // Give up on a daemon that fails every query instead of looping
        // forever short of `min_ops`.
        let hopeless = log.w.failed > 2 * self.min_ops as u64 + log.w.op_ms.len() as u64;
        (Instant::now() >= self.deadline && enough) || hopeless
    }
}

fn client(
    addr: std::net::SocketAddr,
    mix: &Mix,
    refs: &References,
    until: &Until,
    traced: bool,
    client: usize,
) -> ClientLog {
    let mut seq = Sequence::new(mix.seed, client);
    let mut log = ClientLog::default();
    let mut conn = Connection::connect(addr).ok();
    while !until.done(&log) {
        let (class, variant, scheme) = seq.next(mix);
        let mut req = mix.request(class, variant, scheme);
        log.w.attempted += 1;
        if traced {
            set_trace_id(&mut req, ((client as u64 + 1) << 40) | log.w.attempted);
        }
        let Some(c) = conn.as_mut() else {
            log.w.failed += 1;
            conn = Connection::connect(addr).ok();
            continue;
        };
        let t = Instant::now();
        let res = if traced {
            c.request_timed(&req).map(|(r, timing)| (r, Some(timing)))
        } else {
            c.request(&req).map(|r| (r, None))
        };
        let dt = t.elapsed();
        let (resp, timing) = match res {
            Ok(ok) => ok,
            Err(_) => {
                // A broken connection: count it and reconnect for the
                // next query.
                log.w.failed += 1;
                conn = Connection::connect(addr).ok();
                continue;
            }
        };
        let Response::Result(r) = &resp else {
            log.w.failed += 1;
            continue;
        };
        log.w.op_ms.push(dt.as_secs_f64() * 1e3);
        until.answered.fetch_add(1, Ordering::Relaxed);
        log.w.tuples += mix.tuples(class, variant);
        log.classes.push(class);
        if refs.get(&(class, variant)) != Some(&(r.matches, r.checksum)) {
            log.w.wrong += 1;
        }
        if let Some(timing) = timing {
            let qt = RunReport::parse(&r.report_json)
                .ok()
                .and_then(|rep| rep.query_trace)
                .unwrap_or_default();
            let us = |ns: u64| ns as f64 / 1e3;
            log.samples.push(Sample {
                send: timing.send.as_secs_f64() * 1e6,
                wait: timing.wait.as_secs_f64() * 1e6,
                recv: timing.recv.as_secs_f64() * 1e6,
                queue: us(qt.queue_wait_ns),
                grant: us(qt.grant_wait_ns),
                exec: us(qt.exec_ns),
                serialize: us(qt.serialize_ns),
                response_bytes: resp.encode().len() as f64,
            });
        }
    }
    log
}

fn set_trace_id(req: &mut Request, id: u64) {
    match req {
        Request::Join(j) => j.trace_id = id,
        Request::Agg(a) => a.trace_id = id,
        _ => {}
    }
}

/// Run `serve_mix` and return its metrics.
pub fn run(args: &Args) -> Outcome {
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mix = Mix::new(args.seed, args.scale);
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        if let Some((server, _)) = ready.take() {
            Server::stop(server);
        }
        let t = Instant::now();
        let server = start_server(&mix, clients, false);
        let refs = match references(&mix) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("serve_mix: reference query failed: {e}");
                Server::stop(server);
                return Outcome::failed_setup();
            }
        };
        setup_s.push(t.elapsed().as_secs_f64());
        ready = Some((server, refs));
    }
    let (server, refs) = ready.expect("at least one set-up");

    if !args.trace {
        let (w, _, _) = closed_loop(&server, &mix, &refs, (args.seconds, crate::MIN_OPS), false, clients);
        Server::stop(server);
        return Outcome::new(end_to_end("serve_mix", &setup_s, &w), &w);
    }

    let half = args.seconds / 2.0;
    let (plain, _, _) = closed_loop(&server, &mix, &refs, (half, crate::MIN_TRACE_OPS), false, clients);
    Server::stop(server);
    let server = start_server(&mix, clients, true);
    let (traced, samples, classes) = closed_loop(&server, &mix, &refs, (half, crate::MIN_TRACE_OPS), true, clients);
    let admission = server.admission().clone();
    Server::stop(server);

    let mut layers = Layers::new();
    let pick = |f: fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    let put_q = |layers: &mut Layers, name: &str, xs: Vec<f64>| {
        layers.set(&format!("{name}.p50"), median(&xs));
        layers.set(&format!("{name}.p99"), quantile(&xs, 0.99));
    };
    put_q(&mut layers, "server.client.send_us", pick(|s| s.send));
    put_q(&mut layers, "server.client.wait_us", pick(|s| s.wait));
    put_q(&mut layers, "server.client.recv_us", pick(|s| s.recv));
    put_q(&mut layers, "server.queue_wait_us", pick(|s| s.queue));
    put_q(&mut layers, "server.grant_wait_us", pick(|s| s.grant));
    put_q(&mut layers, "server.exec_us", pick(|s| s.exec));
    put_q(&mut layers, "server.serialize_us", pick(|s| s.serialize));
    put_q(
        &mut layers,
        "server.unattributed_us",
        pick(|s| s.wait - s.queue - s.grant - s.exec - s.serialize),
    );
    let bytes = pick(|s| s.response_bytes);
    layers.set(
        "server.response_bytes.mean",
        bytes.iter().sum::<f64>() / bytes.len().max(1) as f64,
    );
    layers.set(
        "server.admission.peak_waiting",
        admission.peak_waiting() as f64,
    );
    layers.set("server.admission.rejected", admission.totals().1 as f64);
    layers.set(
        "obs.trace_overhead_pct",
        overhead_pct(median(&traced.op_ms), median(&plain.op_ms)),
    );

    let ok = in_process(&mix, &refs, &classes, &mut layers);
    let mut out = Outcome::traced(layers, &[&plain, &traced]);
    out.correct &= ok;
    out
}

/// Time the query layers without the daemon: one `query::run` per
/// class, the aggregation kernel alone, input generation, and the
/// small join split into its core layers. Returns whether every
/// in-process answer was right.
fn in_process(mix: &Mix, refs: &References, classes: &[Class], layers: &mut Layers) -> bool {
    const REPS: usize = 3;
    let mut ok = true;
    for (class, name) in [
        (Class::JoinSmall, "join_small"),
        (Class::Agg, "agg"),
        (Class::JoinLarge, "join_large"),
    ] {
        let req = mix.request(class, 0, SCHEMES[1]);
        let ms = median_ms(REPS, || {
            let answer = query::run(0, &req).map(|out| (out.matches, out.checksum));
            ok &= answer.ok().as_ref() == refs.get(&(class, 0));
        });
        layers.set(&format!("server.query.standalone_ms.{name}"), ms);
    }

    // Input generation per class, reported for the median query of the
    // mix that was sent.
    let small = JoinSpec {
        build_tuples: mix.small_tuples as usize,
        ..batch::spec(MB, mix.seed)
    };
    let large = JoinSpec {
        build_tuples: mix.large_tuples as usize,
        ..small
    };
    let rows = mix.agg_rows[mix.agg_rows.len() / 2] as usize;
    let keys = mix.agg_keys as usize;
    let gen_ms = |class| match class {
        Class::JoinSmall => median_ms(REPS, || drop(small.generate())),
        Class::Agg => median_ms(REPS, || drop(agg_input(rows, keys))),
        Class::JoinLarge => median_ms(REPS, || drop(large.generate())),
    };
    let per_class: HashMap<Class, f64> = BLOCK.iter().map(|&c| (c, gen_ms(c))).collect();
    let per_op: Vec<f64> = classes.iter().map(|c| per_class[c]).collect();
    layers.set("workload.generate_ms", median(&per_op));

    let input = agg_input(rows, keys);
    let buckets = plan::hash_table_buckets(keys, 1);
    let agg = median_ms(2 * REPS + 1, || {
        let scheme = AggScheme::Group { g: 16 };
        let table = aggregate(&mut NativeModel, scheme, &input, buckets, |t: &[u8]| {
            t[4] as i64
        });
        ok &= table.num_groups() == keys;
    });
    layers.set("core.aggregate.ms", agg);

    let gen = small.generate();
    let (splits, joined_ok) = batch::traced_joins(&gen, mix.small_budget as usize, 6 * REPS);
    batch::publish(&splits, layers);
    ok && joined_ok
}

/// The aggregation input `query::run` builds for an agg request: 100 B
/// tuples whose keys cycle through `keys` distinct values.
fn agg_input(rows: usize, keys: usize) -> Relation {
    let mut b = RelationBuilder::new(Schema::key_payload(100));
    let mut t = [0u8; 100];
    for i in 0..rows {
        t[..4].copy_from_slice(&key_of_index((i % keys) as u32).to_le_bytes());
        b.push(&t);
    }
    b.finish()
}

/// SplitMix64: the class sequence's generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
