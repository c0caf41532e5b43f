//! End-to-end and per-layer benchmark of the spinal-codes stack.
//!
//! Three workloads (see `README.md` in this directory for why each was
//! chosen and what each metric means):
//!
//! * `bulk_4k` — one 4 KiB transfer per batch over the in-process
//!   [`spinal_net::LoopbackLink`] at AWGN 10 dB, clean datagram path;
//! * `small_lossy` — back-to-back 96 B transfers at AWGN 15 dB over a
//!   datagram path that loses, duplicates and reorders;
//! * `svc_mixed` — a closed loop of 64 sessions on a 2-worker
//!   [`spinal_core::DecodeService`], no network layers.
//!
//! A batch is a fixed, seed-derived set of inputs. The runner repeats it
//! until the time budget is spent, so every repetition does identical
//! work: its deterministic [`Counts`] must match exactly, and timings
//! are taken as medians over repetitions. Only public API of the
//! repository's crates is used; the benchmark's own code wraps the calls
//! into each layer with [`trace::Tracer`] spans.

#![forbid(unsafe_code)]

pub mod host;
pub mod net;
pub mod stats;
pub mod svc;
pub mod trace;

use std::collections::BTreeMap;
use trace::Tracer;

/// The workload names, in the order the benchmark documents them.
pub const WORKLOADS: [&str; 3] = ["bulk_4k", "small_lossy", "svc_mixed"];

/// End-to-end metrics `(name, unit)`, printed by an untraced run.
/// `fail_frac` is printed too, but it is not in this list: it is 0 on a
/// healthy run, and the result line carries `attempted` and `failed`.
pub const END_TO_END: [(&str, &str); 10] = [
    ("payload_Bps", "B/s"),
    ("cpu_us_per_byte", "us"),
    ("bits_per_symbol", "bit/sym"),
    ("xfer_p50_ms", "ms"),
    ("xfer_tail_ms", "ms"),
    ("rounds_per_xfer", "rounds"),
    ("session_p50_ms", "ms"),
    ("session_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed by a traced run. Times and
/// counts are per batch repetition.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("sender.poll_us", "us"),
    ("sender.datagrams", "count"),
    ("sender.symbols", "count"),
    ("sender.backoff_skips", "count"),
    ("link.send_us", "us"),
    ("link.recv_us", "us"),
    ("link.datagrams", "count"),
    ("wire.parse_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.parse_rejects", "count"),
    ("receiver.fold_us", "us"),
    ("receiver.attempt_us", "us"),
    ("receiver.feedback_us", "us"),
    ("receiver.attempts", "count"),
    ("receiver.attempt_yield", "ratio"),
    ("receiver.attempt_share", "ratio"),
    ("receiver.reorder_evictions", "count"),
    ("receiver.peak_pending_spans", "count"),
    ("net.share", "ratio"),
    ("transfer.setup_us", "us"),
    ("transfer.rounds", "count"),
    ("service.open_us", "us"),
    ("service.submit_us", "us"),
    ("service.wait_us", "us"),
    ("service.close_us", "us"),
    ("service.attempts", "count"),
    ("service.attempt_yield", "ratio"),
    ("service.submits_rejected", "count"),
    ("service.sessions_shed", "count"),
    ("service.dispatch_p99_us", "us"),
    ("engine.worker_cpu_s", "s"),
    ("engine.respawns", "count"),
    ("engine.stale", "count"),
    ("encoder.gen_us", "us"),
    ("trace.wall_us", "us"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_us", "us"),
];

/// Deterministic work counts of one batch. For a given seed they are
/// identical on every repetition and every run; `draws` fingerprints the
/// channel output the receiver saw, so a different seed changes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    /// Transfers (net workloads) or sessions (`svc_mixed`) attempted.
    pub units: u64,
    /// Code blocks framed (net) or sessions opened (`svc_mixed`).
    pub blocks: u64,
    /// Code blocks CRC-accepted (net) or sessions decoded bit-exact.
    pub decoded: u64,
    /// Channel symbols put on the link or streamed into sessions.
    pub symbols: u64,
    /// Datagrams the senders put on the link (0 for `svc_mixed`).
    pub datagrams: u64,
    /// Feedback round trips (net) or submit→wait round trips (service).
    pub rounds: u64,
    /// Decode attempts run.
    pub attempts: u64,
    /// FNV-1a digest of every channel output the receiving side saw.
    pub draws: u64,
}

impl Counts {
    /// Element-wise sum (the digest is chained, so order matters).
    pub fn add(&mut self, o: &Counts) {
        self.units += o.units;
        self.blocks += o.blocks;
        self.decoded += o.decoded;
        self.symbols += o.symbols;
        self.datagrams += o.datagrams;
        self.rounds += o.rounds;
        self.attempts += o.attempts;
        self.draws = fnv_u64(self.draws, o.draws);
    }
}

/// What one batch produced, besides its wall and CPU time (which the
/// runner measures around it).
#[derive(Debug, Default)]
pub struct BatchOut {
    /// Deterministic work counts.
    pub counts: Counts,
    /// Payload bytes delivered and verified bit for bit.
    pub delivered_bytes: u64,
    /// Units whose output arrived but differed from the input.
    pub mismatched: u64,
    /// Units not delivered bit-exact (mismatches included).
    pub failed: u64,
    /// Completion time of each transfer (on `svc_mixed`: each session), ms.
    pub xfer_ms: Vec<f64>,
    /// Session open → bit-exact decode, ms: per code block on the net
    /// workloads, per service session on `svc_mixed`.
    pub session_ms: Vec<f64>,
    /// Per-layer counters for this batch, keyed by metric name.
    pub counters: BTreeMap<&'static str, f64>,
    /// Problems the batch's own correctness checks found.
    pub errors: Vec<String>,
}

impl BatchOut {
    /// Add `v` to the counter `name`.
    pub fn bump(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_insert(0.0) += v;
    }

    /// Raise the counter `name` to at least `v`.
    pub fn peak(&mut self, name: &'static str, v: f64) {
        let e = self.counters.entry(name).or_insert(0.0);
        *e = e.max(v);
    }
}

/// A workload, set up and ready to run batches.
pub enum Bench {
    /// `bulk_4k` or `small_lossy`.
    Net(net::NetBench),
    /// `svc_mixed`.
    Svc(svc::SvcBench),
}

impl Bench {
    /// Build workload `name` from `seed`: inputs, decoders, service and
    /// workers. `None` for an unknown name.
    pub fn setup(name: &str, seed: u64) -> Option<Bench> {
        Some(match name {
            "bulk_4k" => Bench::Net(net::NetBench::new(net::NetSpec::bulk_4k(), seed)),
            "small_lossy" => Bench::Net(net::NetBench::new(net::NetSpec::small_lossy(), seed)),
            "svc_mixed" => Bench::Svc(svc::SvcBench::new(seed)),
            _ => return None,
        })
    }

    /// Run one batch, recording spans into `tr` when it is enabled.
    pub fn run_batch(&mut self, tr: &Tracer) -> BatchOut {
        match self {
            Bench::Net(b) => b.run_batch(tr),
            Bench::Svc(b) => b.run_batch(tr),
        }
    }
}

/// SplitMix64: the benchmark's only source of generated inputs.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of item `i` of a batch generated from `seed`.
pub fn derive_seed(seed: u64, i: u64) -> u64 {
    let mut s = seed ^ i.wrapping_mul(0xA24B_AED4_963E_E407);
    splitmix(&mut s)
}

/// `len` seed-derived bytes.
pub fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut s = seed;
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&splitmix(&mut s).to_le_bytes());
    }
    out.truncate(len);
    out
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into an FNV-1a digest.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fold one `u64` into an FNV-1a digest.
pub fn fnv_u64(h: u64, v: u64) -> u64 {
    fnv(h, &v.to_le_bytes())
}
