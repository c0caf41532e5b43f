//! The decode-service workload: one generator thread keeps a fixed
//! number of sessions open on a pooled [`DecodeService`] (a closed
//! loop — each session waits for its result before another pass is
//! streamed into it), cycling round-robin through small code cells.

use crate::host::{process_cpu_ns, thread_cpu_ns};
use crate::trace::Tracer;
use crate::{derive_seed, fnv_u64, random_bytes, BatchOut, Counts, FNV_BASIS};
use spinal_channel::{AwgnChannel, Channel};
use spinal_core::{
    BubbleDecoder, CodeParams, DecodeService, Encoder, Message, MetricProfile, RxSymbols, Schedule,
    ServiceConfig, Session, SessionBuffer, SessionOptions,
};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Decode workers in the service's pool.
pub const WORKERS: usize = 2;
/// Sessions the generator keeps open at once.
pub const CONCURRENCY: usize = 64;
/// Sessions per batch.
pub const SESSIONS: usize = 3072;
/// Passes streamed into a session before it counts as failed.
pub const MAX_PASSES: usize = 8;

/// One cell of the mix: code geometry, metric profile and channel SNR.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Code parameters.
    pub params: CodeParams,
    /// Branch-metric arithmetic of the decoder.
    pub profile: MetricProfile,
    /// AWGN SNR in dB.
    pub snr_db: f64,
}

/// The mix, visited round-robin. The SNRs sit near each geometry's
/// one-pass threshold, so a share of sessions (measured in `README.md`)
/// needs a second pass: an incremental re-decode through the session's
/// table cache.
pub fn cells() -> Vec<Cell> {
    let cell = |n, b, profile, snr_db| Cell {
        params: CodeParams::default().with_n(n).with_b(b),
        profile,
        snr_db,
    };
    vec![
        cell(32, 8, MetricProfile::Exact, 12.0),
        cell(64, 16, MetricProfile::Quantized, 12.0),
        cell(64, 16, MetricProfile::Exact, 13.0),
    ]
}

/// One generated session: its cell, channel seed and message.
#[derive(Debug, Clone)]
pub struct SessionInput {
    /// Index into [`cells`].
    pub cell: usize,
    /// Channel seed.
    pub seed: u64,
    /// The message the session must decode.
    pub message: Message,
}

/// An open session plus the sender-side state that streams its passes.
struct Live {
    idx: usize,
    session: Session,
    encoder: Encoder,
    channel: AwgnChannel,
    passes: usize,
    opened: Instant,
}

/// Close `live`'s session, then drop the generator's encoder and
/// channel for it (generator work, like building them).
fn retire(live: Live, tr: &Tracer) {
    let Live {
        session,
        encoder,
        channel,
        ..
    } = live;
    tr.time("service.close", || drop(session));
    tr.time("encoder.gen", || drop((encoder, channel)));
}

/// The service workload, set up: decoders, pool and inputs.
pub struct SvcBench {
    svc: DecodeService,
    cells: Vec<Cell>,
    decoders: Vec<Arc<BubbleDecoder>>,
    schedules: Vec<Schedule>,
    /// One input per session of the batch.
    pub inputs: Vec<SessionInput>,
}

impl SvcBench {
    /// Build decoders, spawn the pool and generate the batch from `seed`.
    pub fn new(seed: u64) -> Self {
        let cells = cells();
        let decoders = cells
            .iter()
            .map(|c| Arc::new(BubbleDecoder::new(&c.params).with_profile(c.profile)))
            .collect();
        let schedules = cells
            .iter()
            .map(|c| Schedule::new(c.params.num_spines(), c.params.tail, c.params.puncturing))
            .collect();
        let svc = DecodeService::new(
            WORKERS,
            ServiceConfig {
                max_sessions: CONCURRENCY,
                queue_capacity: CONCURRENCY,
                ..ServiceConfig::default()
            },
        );
        let inputs = (0..SESSIONS as u64)
            .map(|i| {
                let cell = i as usize % cells.len();
                let s = derive_seed(seed, i);
                let n = cells[cell].params.n;
                SessionInput {
                    cell,
                    seed: s,
                    message: Message::from_bytes(random_bytes(s ^ 0x4D53_4753, n / 8), n),
                }
            })
            .collect();
        SvcBench {
            svc,
            cells,
            decoders,
            schedules,
            inputs,
        }
    }

    /// Encode one more pass of `live`'s message, send it through the
    /// channel and push it into the session's receive buffer.
    fn stream_pass(&self, live: &mut Live, tr: &Tracer, counts: &mut Counts) {
        let spp = self.cells[self.inputs[live.idx].cell]
            .params
            .symbols_per_pass();
        tr.time("encoder.gen", || {
            let ys = live.channel.transmit(&live.encoder.next_symbols(spp));
            for y in &ys {
                counts.draws = fnv_u64(fnv_u64(counts.draws, y.re.to_bits()), y.im.to_bits());
            }
            counts.symbols += ys.len() as u64;
            if let Some(SessionBuffer::Symbols(rx)) = live.session.buffer_mut() {
                rx.push(&ys);
            }
        });
        live.passes += 1;
    }

    /// Open session `idx` with its first pass and submit it.
    fn open(
        &self,
        idx: usize,
        tr: &Tracer,
        counts: &mut Counts,
        out: &mut BatchOut,
    ) -> Option<Live> {
        tr.set_id(idx as u64);
        let input = &self.inputs[idx];
        let cell = &self.cells[input.cell];
        let (encoder, channel) = tr.time("encoder.gen", || {
            (
                Encoder::new(&cell.params, &input.message),
                AwgnChannel::new(cell.snr_db, input.seed),
            )
        });
        let opened = Instant::now();
        let buffer = SessionBuffer::Symbols(RxSymbols::new(self.schedules[input.cell].clone()));
        let opts = SessionOptions::default();
        let session = match tr.time("service.open", || {
            self.svc
                .open_session(&self.decoders[input.cell], buffer, opts)
        }) {
            Ok(s) => s,
            Err(e) => {
                out.errors.push(format!("session {idx}: open refused: {e}"));
                return None;
            }
        };
        let mut live = Live {
            idx,
            session,
            encoder,
            channel,
            passes: 0,
            opened,
        };
        self.stream_pass(&mut live, tr, counts);
        self.submit(&mut live, tr, counts, out).then_some(live)
    }

    fn submit(
        &self,
        live: &mut Live,
        tr: &Tracer,
        counts: &mut Counts,
        out: &mut BatchOut,
    ) -> bool {
        match tr.time("service.submit", || live.session.submit()) {
            Ok(()) => {
                counts.rounds += 1;
                true
            }
            Err(e) => {
                out.errors
                    .push(format!("session {}: submit refused: {e}", live.idx));
                false
            }
        }
    }

    /// Run every session of the batch to a bit-exact decode or to the
    /// pass budget, and check that the service's books balance.
    pub fn run_batch(&mut self, tr: &Tracer) -> BatchOut {
        let mut out = BatchOut::default();
        let mut counts = Counts {
            draws: FNV_BASIS,
            ..Counts::default()
        };
        let before = self.svc.metrics();
        let gen_cpu0 = thread_cpu_ns();
        let cpu0 = process_cpu_ns();
        let mut next = 0;
        let mut active: VecDeque<Live> = VecDeque::with_capacity(CONCURRENCY);
        loop {
            while next < self.inputs.len() && active.len() < CONCURRENCY {
                counts.units += 1;
                counts.blocks += 1;
                match self.open(next, tr, &mut counts, &mut out) {
                    Some(live) => active.push_back(live),
                    None => out.failed += 1,
                }
                next += 1;
            }
            let Some(mut live) = active.pop_front() else {
                break;
            };
            tr.set_id(live.idx as u64);
            let result = tr.time("service.wait", || live.session.wait());
            let expect = &self.inputs[live.idx].message;
            match result {
                Some(Ok(r)) => {
                    counts.attempts += 1;
                    if r.message == *expect {
                        counts.decoded += 1;
                        let ms = live.opened.elapsed().as_secs_f64() * 1e3;
                        out.session_ms.push(ms);
                        out.xfer_ms.push(ms);
                        out.delivered_bytes += expect.as_bytes().len() as u64;
                        retire(live, tr);
                        continue;
                    }
                    if live.passes < MAX_PASSES {
                        self.stream_pass(&mut live, tr, &mut counts);
                        if self.submit(&mut live, tr, &mut counts, &mut out) {
                            active.push_back(live);
                            continue;
                        }
                    }
                    out.failed += 1;
                }
                Some(Err(e)) => {
                    out.errors
                        .push(format!("session {}: decode failed: {e:?}", live.idx));
                    out.failed += 1;
                }
                None => {
                    out.errors.push(format!(
                        "session {}: attempt ended without a result",
                        live.idx
                    ));
                    out.failed += 1;
                }
            }
            retire(live, tr);
        }
        let worker_cpu = (process_cpu_ns() - cpu0).saturating_sub(thread_cpu_ns() - gen_cpu0);
        let after = self.svc.metrics();
        let d = |f: fn(&spinal_core::MetricsSnapshot) -> u64| (f(&after) - f(&before)) as f64;
        let submits = d(|m| m.submits);
        let ended = d(|m| m.completions)
            + d(|m| m.attempts_failed)
            + d(|m| m.brownout_sheds)
            + d(|m| m.attempts_cancelled)
            + d(|m| m.attempts_deadline_expired);
        if submits != ended || submits != counts.rounds as f64 || after.stale_completions != 0 {
            out.errors.push(format!(
                "service books: {submits} submits, {ended} completions + failed + shed + cancelled + expired, \
                 {} submitted here, {} stale",
                counts.rounds, after.stale_completions
            ));
        }
        out.counts = counts;
        out.bump("service.attempts", d(|m| m.completions));
        out.bump("service.decoded", counts.decoded as f64);
        out.bump("service.submits_rejected", d(|m| m.submits_rejected));
        out.bump("service.sessions_shed", d(|m| m.sessions_shed));
        out.peak("service.dispatch_p99_us", after.dispatch_p99_us as f64);
        out.bump("engine.worker_cpu_s", worker_cpu as f64 / 1e9);
        out.bump("engine.respawns", d(|m| m.worker_panics));
        out.bump("engine.stale", d(|m| m.stale_completions));
        out
    }
}
