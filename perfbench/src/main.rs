//! The benchmark command (see `README.md` in this directory).
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload small_lossy --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Sets the workload up several times (the median is `setup_s`), then
//! repeats its batch until `--seconds` are spent. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). With `--trace 1` batches alternate untraced and traced,
//! the difference of their median wall times is the tracing overhead,
//! and the first traced batch's spans are written to `perfbench/out/`.
//! Exits 1 when an output differs from its input or a check fails, 2 on a
//! usage error.

use perfbench::stats::{median, percentile, tail_percentile};
use perfbench::trace::{self, Tracer};
use perfbench::{host, BatchOut, Bench, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::fs;
use std::io::BufWriter;
use std::process::exit;
use std::time::Instant;

/// Set-ups per run, at least; `setup_s` is their median. Set-up
/// repeats until it has also taken [`SETUP_MIN_S`] in total, so that a
/// set-up of a few microseconds is still measured many times.
const SETUP_REPS: usize = 31;
const SETUP_MIN_S: f64 = 0.02;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: '{v}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => {
                return Err(format!(
                    "unknown workload '{value}' (expected one of {WORKLOADS:?})"
                ))
            }
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace: expected 0 or 1, got '{value}'")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One repetition of the batch.
struct Rep {
    out: BatchOut,
    wall_s: f64,
    cpu_s: f64,
    traced: bool,
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
            WORKLOADS.join("|")
        );
        exit(2);
    });
    let host = host::fingerprint();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# host {host}");

    let mut setups = Vec::new();
    let mut bench = None;
    while setups.len() < SETUP_REPS || setups.iter().sum::<f64>() < SETUP_MIN_S {
        drop(bench.take());
        let t0 = Instant::now();
        bench = Bench::setup(&args.workload, args.seed);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("workload name was validated");
    let setup_s = median(&setups);

    let tracer = Tracer::new();
    let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut covered_ns = 0;
    let mut kept_spans = Vec::new();
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut peak_rss_mb = 0.0;
    loop {
        let traced = args.trace && reps.len() % 2 == 1;
        tracer.start_rep(reps.len() as u32, traced);
        let cpu0 = host::process_cpu_ns();
        let t0 = Instant::now();
        let out = bench.run_batch(&tracer);
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = (host::process_cpu_ns() - cpu0) as f64 / 1e9;
        tracer.start_rep(reps.len() as u32, false);
        if traced {
            let spans = tracer.take();
            for (name, ns) in trace::self_times(&spans) {
                *self_ns.entry(name).or_insert(0) += ns;
            }
            covered_ns += trace::covered_ns(&spans);
            if kept_spans.is_empty() {
                kept_spans = spans;
            }
        }
        if reps.is_empty() {
            // Every batch does the same work, so the first one reaches
            // the workload's peak; later growth would only be this
            // runner's own sample vectors.
            peak_rss_mb = host::peak_rss_mb();
        }
        reps.push(Rep {
            out,
            wall_s,
            cpu_s,
            traced,
        });
        // Stop once the budget is spent, or when the next repetition
        // would end more than half of one past it.
        let typical = median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        let enough = reps.len() >= if args.trace { 2 } else { 1 };
        if enough && started.elapsed().as_secs_f64() + typical / 2.0 > args.seconds as f64 {
            break;
        }
    }

    // Correctness: every output was compared bit for bit inside the
    // batch; here every repetition must also have done identical work.
    let first = reps[0].out.counts;
    let mut errors: Vec<String> = reps.iter().flat_map(|r| r.out.errors.clone()).collect();
    for (i, r) in reps.iter().enumerate() {
        if r.out.counts != first {
            errors.push(format!(
                "repetition {i} counts {:?} differ from {first:?}",
                r.out.counts
            ));
        }
    }
    errors.sort();
    errors.dedup();
    let attempted: u64 = reps.iter().map(|r| r.out.counts.units).sum();
    let failed: u64 = reps.iter().map(|r| r.out.failed).sum();
    let mismatched: u64 = reps.iter().map(|r| r.out.mismatched).sum();
    let correct = errors.is_empty() && mismatched == 0;

    println!(
        "# counts per batch: units={} blocks={} decoded={} symbols={} datagrams={} rounds={} attempts={} draws={:016x} (identical over {} repetitions: {})",
        first.units,
        first.blocks,
        first.decoded,
        first.symbols,
        first.datagrams,
        first.rounds,
        first.attempts,
        first.draws,
        reps.len(),
        reps.iter().all(|r| r.out.counts == first)
    );
    let walls: Vec<String> = reps.iter().map(|r| format!("{:.3}", r.wall_s)).collect();
    println!("# repetition wall seconds: {}", walls.join(" "));
    println!(
        "fail_frac {:.6} ratio ({failed} of {attempted} not delivered bit-exact)",
        failed as f64 / attempted.max(1) as f64
    );

    let plain: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
        write_trace(&args, &host, &kept_spans);
        per_layer(&plain, &traced, &self_ns, covered_ns)
    } else {
        let e2e = end_to_end(&plain, setup_s, peak_rss_mb);
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name, unit, e2e[name]))
            .collect()
    };
    for (name, unit, value) in &metrics {
        let note = match *name {
            "xfer_tail_ms" => tail_note(&plain, |o| &o.xfer_ms),
            "session_tail_ms" => tail_note(&plain, |o| &o.session_ms),
            _ => String::new(),
        };
        println!("{name} {value} {unit}{note}");
    }
    for e in &errors {
        eprintln!("perfbench: FAIL {e}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
    if !correct {
        exit(1);
    }
}

/// A finite JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The tail percentile for a sample kind, chosen from one batch's
/// sample count.
fn tail_p(plain: &[&Rep], pick: fn(&BatchOut) -> &Vec<f64>) -> f64 {
    tail_percentile(plain.first().map_or(0, |r| pick(&r.out).len()))
}

fn tail_note(plain: &[&Rep], pick: fn(&BatchOut) -> &Vec<f64>) -> String {
    let per_batch = plain.first().map_or(0, |r| pick(&r.out).len());
    format!(
        " (p{} of {per_batch} per batch, median over {} batches)",
        tail_p(plain, pick),
        plain.len()
    )
}

/// Each statistic is taken per batch repetition, then the median over
/// repetitions is reported: a slow phase of the host then moves one
/// repetition, not the whole figure.
fn end_to_end(plain: &[&Rep], setup_s: f64, peak_rss_mb: f64) -> BTreeMap<&'static str, f64> {
    let per_rep = |f: &dyn Fn(&Rep) -> f64| median(&plain.iter().map(|r| f(r)).collect::<Vec<_>>());
    let c = plain.first().map(|r| r.out.counts).unwrap_or_default();
    let bytes = plain.first().map_or(0, |r| r.out.delivered_bytes) as f64;
    let xp = tail_p(plain, |o| &o.xfer_ms);
    let sp = tail_p(plain, |o| &o.session_ms);
    BTreeMap::from([
        (
            "payload_Bps",
            per_rep(&|r| r.out.delivered_bytes as f64 / r.wall_s),
        ),
        (
            "cpu_us_per_byte",
            per_rep(&|r| r.cpu_s * 1e6 / r.out.delivered_bytes.max(1) as f64),
        ),
        ("bits_per_symbol", bytes * 8.0 / c.symbols.max(1) as f64),
        ("xfer_p50_ms", per_rep(&|r| median(&r.out.xfer_ms))),
        ("xfer_tail_ms", per_rep(&|r| percentile(&r.out.xfer_ms, xp))),
        ("rounds_per_xfer", c.rounds as f64 / c.units.max(1) as f64),
        ("session_p50_ms", per_rep(&|r| median(&r.out.session_ms))),
        (
            "session_tail_ms",
            per_rep(&|r| percentile(&r.out.session_ms, sp)),
        ),
        ("setup_s", setup_s),
        ("peak_rss_mb", peak_rss_mb),
    ])
}

/// Span names whose self time makes up each per-layer busy-time metric.
const LAYER_SPANS: [(&str, &[&str]); 14] = [
    ("sender.poll_us", &["sender.poll", "sender.drain"]),
    ("link.send_us", &["link.send"]),
    ("link.recv_us", &["link.recv"]),
    ("wire.parse_us", &["wire.parse"]),
    ("wire.encode_us", &["wire.encode"]),
    ("receiver.fold_us", &["receiver.fold"]),
    ("receiver.attempt_us", &["receiver.attempt"]),
    ("receiver.feedback_us", &["receiver.feedback"]),
    ("transfer.setup_us", &["transfer.setup"]),
    ("service.open_us", &["service.open"]),
    ("service.submit_us", &["service.submit"]),
    ("service.wait_us", &["service.wait"]),
    ("service.close_us", &["service.close"]),
    ("encoder.gen_us", &["encoder.gen"]),
];

/// Busy-time metrics that belong to the network layers.
const NET_LAYERS: [&str; 7] = [
    "sender.poll_us",
    "link.send_us",
    "link.recv_us",
    "wire.parse_us",
    "wire.encode_us",
    "receiver.fold_us",
    "receiver.feedback_us",
];

fn per_layer(
    plain: &[&Rep],
    traced: &[&Rep],
    self_ns: &BTreeMap<&'static str, u64>,
    covered_ns: u64,
) -> Vec<(&'static str, &'static str, f64)> {
    let n = traced.len().max(1) as f64;
    let wall_us: f64 = traced.iter().map(|r| r.wall_s * 1e6).sum::<f64>() / n;
    let mut m: BTreeMap<&str, f64> = BTreeMap::new();
    for r in traced {
        for (&k, &v) in &r.out.counters {
            *m.entry(k).or_insert(0.0) += v;
        }
    }
    m.values_mut().for_each(|v| *v /= n);
    for (metric, names) in LAYER_SPANS {
        let ns: u64 = names
            .iter()
            .map(|s| self_ns.get(s).copied().unwrap_or(0))
            .sum();
        m.insert(metric, ns as f64 / 1e3 / n);
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let get = |m: &BTreeMap<&str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let receiver_yield = ratio(
        get(&m, "receiver.blocks_decoded"),
        get(&m, "receiver.attempts"),
    );
    let service_yield = ratio(get(&m, "service.decoded"), get(&m, "service.attempts"));
    m.insert("receiver.attempt_yield", receiver_yield);
    m.insert("service.attempt_yield", service_yield);
    m.insert(
        "receiver.attempt_share",
        ratio(m["receiver.attempt_us"], wall_us),
    );
    let net_us: f64 = NET_LAYERS.iter().map(|k| m[k]).sum();
    m.insert("net.share", ratio(net_us, wall_us));
    m.insert("trace.wall_us", wall_us);
    m.insert(
        "trace.coverage",
        ratio(covered_ns as f64 / 1e3 / n, wall_us),
    );
    let plain_wall = median(&plain.iter().map(|r| r.wall_s * 1e6).collect::<Vec<_>>());
    let traced_wall = median(&traced.iter().map(|r| r.wall_s * 1e6).collect::<Vec<_>>());
    m.insert("trace.overhead_us", traced_wall - plain_wall);
    println!(
        "# trace: {} traced and {} untraced repetitions, median wall {traced_wall:.0} vs {plain_wall:.0} us",
        traced.len(),
        plain.len()
    );
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, m.get(name).copied().unwrap_or(0.0)))
        .collect()
}

/// Write the spans of the first traced repetition as JSON lines.
fn write_trace(args: &Args, host: &str, spans: &[trace::Span]) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/{}-seed{}.spans.jsonl", args.workload, args.seed);
    let header = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"host\":{host}}}",
        args.workload, args.seed
    );
    let written = fs::create_dir_all(dir)
        .and_then(|()| fs::File::create(&path))
        .and_then(|f| trace::write_jsonl(&mut BufWriter::new(f), &header, spans));
    match written {
        Ok(()) => println!("# spans: {} written to {path}", spans.len()),
        Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
    }
}
