//! The two transport workloads: sender → link → receiver → decode →
//! CRC over the in-process [`LoopbackLink`].
//!
//! [`run_transfer`] replays the round loop of `spinal_net::run_transfer`
//! step by step (`SpinalReceiver::pump` expanded into recv → parse →
//! handle → feedback), so each layer's public call can be timed from
//! here. A test checks that it reproduces `run_loopback_transfer`'s
//! report exactly.

use crate::trace::Tracer;
use crate::{derive_seed, fnv, random_bytes, BatchOut, Counts, FNV_BASIS};
use spinal_channel::Impairments;
use spinal_core::{CodeParams, FrameBuilder};
use spinal_net::{
    Datagram, LoopbackLink, NoiseModel, Packet, ReceiverConfig, SenderConfig, SpinalReceiver,
    SpinalSender, TransferConfig,
};
use std::io;
use std::time::Instant;

/// One transport workload's fixed shape.
#[derive(Debug, Clone)]
pub struct NetSpec {
    /// Code parameters of every block.
    pub params: CodeParams,
    /// Payload bytes per transfer.
    pub payload_len: usize,
    /// Transfers per batch.
    pub transfers: usize,
    /// Channel noise on Data payloads.
    pub noise: NoiseModel,
    /// Loss, duplication and reordering on the data direction.
    pub impair: Impairments,
    /// Transfer knobs; the feedback direction is always clean.
    pub cfg: TransferConfig,
}

impl NetSpec {
    fn transfer_cfg() -> TransferConfig {
        TransferConfig {
            max_passes: 16,
            max_rounds: 400,
            ..TransferConfig::default()
        }
    }

    /// `bulk_4k`: one 4 KiB payload (137 blocks of n = 256, default
    /// parameters) per batch at AWGN 10 dB, clean datagram path.
    pub fn bulk_4k() -> Self {
        NetSpec {
            params: CodeParams::default(),
            payload_len: 4096,
            transfers: 1,
            noise: NoiseModel::Awgn { snr_db: 10.0 },
            impair: Impairments::clean(),
            cfg: Self::transfer_cfg(),
        }
    }

    /// `small_lossy`: 96 B payloads (4 blocks) at AWGN 15 dB with 10%
    /// loss, 5% duplication and 10% reordering (span 3) on the data
    /// path — the `awgn15_lossy` condition of the `net_loopback` bin.
    pub fn small_lossy() -> Self {
        NetSpec {
            params: CodeParams::default(),
            payload_len: 96,
            transfers: 100,
            noise: NoiseModel::Awgn { snr_db: 15.0 },
            impair: Impairments {
                loss: 0.1,
                dup: 0.05,
                reorder: 0.1,
                reorder_span: 3,
            },
            cfg: Self::transfer_cfg(),
        }
    }
}

/// One transfer's generated input.
#[derive(Debug, Clone)]
pub struct XferInput {
    /// Seeds the link's noise and impairment; `seed | 1` is the
    /// transfer id, as in `run_loopback_transfer`.
    pub seed: u64,
    /// The payload to deliver.
    pub payload: Vec<u8>,
}

/// A transport workload with its batch of inputs.
pub struct NetBench {
    /// The workload's shape.
    pub spec: NetSpec,
    /// One input per transfer of the batch.
    pub inputs: Vec<XferInput>,
}

impl NetBench {
    /// Generate the batch's inputs from `seed`, and stand up the first
    /// transfer's endpoints once. Every transfer builds its own link,
    /// sender and receiver inside the timed batch; building one set here
    /// puts that cost, which the first transfer cannot start without,
    /// into the set-up time as well.
    pub fn new(spec: NetSpec, seed: u64) -> Self {
        spec.params.validate();
        let inputs: Vec<XferInput> = (0..spec.transfers as u64)
            .map(|i| {
                let s = derive_seed(seed, i);
                XferInput {
                    seed: s,
                    payload: random_bytes(s ^ 0x5041_594C_4F41_4453, spec.payload_len),
                }
            })
            .collect();
        drop(endpoints(&spec, &inputs[0]));
        NetBench { spec, inputs }
    }

    /// Run every transfer of the batch once.
    pub fn run_batch(&self, tr: &Tracer) -> BatchOut {
        let mut out = BatchOut::default();
        for input in &self.inputs {
            run_transfer(&self.spec, input, tr, &mut out);
        }
        out
    }
}

/// A [`Datagram`] that times every call into the link it wraps and
/// counts the datagrams it delivers.
struct TimedLink<'t> {
    inner: LoopbackLink,
    tr: &'t Tracer,
    delivered: u64,
}

impl Datagram for TimedLink<'_> {
    fn send(&mut self, buf: &[u8]) -> io::Result<()> {
        let inner = &mut self.inner;
        self.tr.time("link.send", || inner.send(buf))
    }

    fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        let inner = &mut self.inner;
        let got = self.tr.time("link.recv", || inner.recv());
        if matches!(got, Ok(Some(_))) {
            self.delivered += 1;
        }
        got
    }
}

/// Receive-side bookkeeping the benchmark keeps outside the receiver.
struct Probe {
    /// When the receiver first took a Data datagram for each block.
    first_seen: Vec<Option<Instant>>,
    decoded: usize,
    draws: u64,
    parse_rejects: u64,
    peak_pending: usize,
}

/// Drain the receiver's link, then answer with feedback: the steps of
/// `SpinalReceiver::pump`, each timed on its own.
fn pump(
    rx: &mut SpinalReceiver,
    link: &mut TimedLink,
    tr: &Tracer,
    p: &mut Probe,
    out: &mut BatchOut,
) {
    while let Some(buf) = link.recv().expect("loopback I/O cannot fail") {
        p.draws = fnv(p.draws, &buf);
        let Some(pkt) = tr.time("wire.parse", || Packet::decode(&buf)) else {
            p.parse_rejects += 1;
            continue;
        };
        let block = match &pkt {
            Packet::Data { block, .. } => Some(usize::from(*block)),
            _ => None,
        };
        if let Some(b) = block {
            if rx.n_blocks() > 0 {
                p.first_seen.resize(rx.n_blocks(), None);
                if p.first_seen.get(b).is_some_and(Option::is_none) {
                    p.first_seen[b] = Some(Instant::now());
                }
            }
        }
        let before = rx.decode_attempts();
        let tok = tr.enter("receiver.handle");
        rx.handle(pkt);
        let attempted = rx.decode_attempts() > before;
        tr.exit_as(
            tok,
            if attempted {
                "receiver.attempt"
            } else {
                "receiver.fold"
            },
        );
        if attempted && rx.blocks_decoded() > p.decoded {
            p.decoded = rx.blocks_decoded();
            if let Some(Some(t0)) = block.and_then(|b| p.first_seen.get(b)) {
                out.session_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
        if tr.enabled() {
            p.peak_pending = p.peak_pending.max(rx.pending_spans());
        }
    }
    if let Some(fb) = tr.time("receiver.feedback", || rx.feedback()) {
        let bytes = tr.time("wire.encode", || fb.encode());
        link.send(&bytes).expect("loopback I/O cannot fail");
    }
}

/// One transfer's link pair (sender end, receiver end), sender and
/// receiver, configured as `spinal_net::run_loopback_transfer` does.
fn endpoints(
    spec: &NetSpec,
    input: &XferInput,
) -> (LoopbackLink, LoopbackLink, SpinalSender, SpinalReceiver) {
    let cfg = spec.cfg;
    let (tx, rx) = LoopbackLink::pair(spec.noise, spec.impair, Impairments::clean(), input.seed);
    let sender = SpinalSender::new(
        &spec.params,
        &input.payload,
        input.seed | 1,
        SenderConfig {
            chunk_symbols: cfg.chunk_symbols,
            max_passes: cfg.max_passes,
            modulation: cfg.modulation,
            backoff_after_silent: cfg.backoff_after_silent,
            backoff_max_exp: cfg.backoff_max_exp,
        },
    );
    let receiver = SpinalReceiver::new(
        &spec.params,
        ReceiverConfig {
            max_passes: cfg.max_passes,
            skip_horizon: cfg.skip_horizon,
            max_pending_spans: cfg.max_pending_spans,
        },
    );
    (tx, rx, sender, receiver)
}

/// Run one transfer, verify the delivered payload bit for bit, and add
/// its counts and timings to `out`.
pub fn run_transfer(spec: &NetSpec, input: &XferInput, tr: &Tracer, out: &mut BatchOut) {
    let cfg = spec.cfg;
    let id = input.seed | 1;
    tr.set_id(id);
    let started = Instant::now();
    let (tx, rx, mut sender, mut receiver) = tr.time("transfer.setup", || endpoints(spec, input));
    let mut tx = TimedLink {
        inner: tx,
        tr,
        delivered: 0,
    };
    let mut rx = TimedLink {
        inner: rx,
        tr,
        delivered: 0,
    };
    let mut p = Probe {
        first_seen: Vec::new(),
        decoded: 0,
        draws: FNV_BASIS,
        parse_rejects: 0,
        peak_pending: 0,
    };
    let io = "loopback I/O cannot fail";
    let mut rounds = 0;
    while rounds < cfg.max_rounds {
        rounds += 1;
        tr.time("sender.poll", || sender.poll(&mut tx)).expect(io);
        pump(&mut receiver, &mut rx, tr, &mut p, out);
        if sender.complete() {
            break;
        }
        if sender.exhausted() && !receiver.complete() {
            tr.time("sender.drain", || sender.drain_feedback(&mut tx))
                .expect(io);
            break;
        }
    }
    pump(&mut receiver, &mut rx, tr, &mut p, out);
    tr.time("sender.drain", || sender.drain_feedback(&mut tx))
        .expect(io);
    out.xfer_ms.push(started.elapsed().as_secs_f64() * 1e3);

    match receiver.payload() {
        Some(got) if got == input.payload => out.delivered_bytes += got.len() as u64,
        Some(got) => {
            let chunk = FrameBuilder::new(spec.params.n).payload_bits() / 8;
            let wrong: Vec<usize> = (0..receiver.n_blocks())
                .filter(|&b| got.chunks(chunk).nth(b) != input.payload.chunks(chunk).nth(b))
                .collect();
            out.mismatched += 1;
            out.failed += 1;
            out.errors.push(format!(
                "transfer {id:#x}: delivered payload differs from input in blocks {wrong:?} \
                 (each passed its CRC)"
            ));
        }
        None => out.failed += 1,
    }
    out.counts.add(&Counts {
        units: 1,
        blocks: receiver.n_blocks() as u64,
        decoded: receiver.blocks_decoded() as u64,
        symbols: sender.symbols_sent() as u64,
        datagrams: sender.datagrams_sent() as u64,
        rounds: rounds as u64,
        attempts: receiver.decode_attempts() as u64,
        draws: p.draws,
    });
    let m = receiver.service().metrics();
    out.bump("sender.datagrams", sender.datagrams_sent() as f64);
    out.bump("sender.symbols", sender.symbols_sent() as f64);
    out.bump("sender.backoff_skips", sender.backoff_skips() as f64);
    out.bump("link.datagrams", (tx.delivered + rx.delivered) as f64);
    out.bump("wire.parse_rejects", p.parse_rejects as f64);
    out.bump("receiver.attempts", receiver.decode_attempts() as f64);
    out.bump("receiver.blocks_decoded", receiver.blocks_decoded() as f64);
    out.bump(
        "receiver.reorder_evictions",
        receiver.reorder_evictions() as f64,
    );
    out.peak("receiver.peak_pending_spans", p.peak_pending as f64);
    out.bump("transfer.rounds", rounds as f64);
    out.bump("service.submits_rejected", m.submits_rejected as f64);
    out.bump("service.sessions_shed", m.sessions_shed as f64);
    out.bump("engine.stale", m.stale_completions as f64);
}
