//! Parallel/serial equivalence: the `DecodeEngine` must be an execution
//! strategy, not a different decoder. Every pooled path — the batched
//! block pipeline, submit/drain, and (for hard-bit observations, which
//! the engine's symbol entry points do not take) a decode-service
//! session — must reproduce the serial workspace decode bit for bit
//! (message bytes AND cost bits) at every thread count, for arbitrary
//! `(k, B, d, channel)` scenarios and for the degenerate-observation
//! regression cases from the NaN-safety work (where *every* leaf ties at
//! `+∞` cost and only the canonical total order keeps the winner
//! well-defined).

use proptest::prelude::*;
use spinal_codes::channel::BitChannel;
use spinal_codes::core::{DecodeResult, MetricProfile};
use spinal_codes::{
    AwgnChannel, BscChannel, BubbleDecoder, Channel, CodeParams, Complex, DecodeEngine,
    DecodeRequest, DecodeService, DecodeWorkspace, Encoder, Message, RayleighChannel, RxBits,
    RxSymbols, Schedule, ServiceConfig, SessionBuffer, SessionOptions,
};
use std::sync::Arc;

/// One generated decode scenario: parameters + received buffer.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    k: usize,
    d: usize,
    b: usize,
    /// 0 = AWGN, 1 = BSC, 2 = Rayleigh with CSI.
    chan: u8,
    /// Index into [`THREAD_COUNTS`].
    threads_idx: usize,
    /// Decode under the quantized integer profile instead of exact.
    quantized: bool,
    seed: u64,
}

/// Budgets under test: inline passthrough, even/odd pool widths, and
/// more workers than there are blocks to decode.
const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        2usize..5,
        1usize..4,
        0usize..3,
        0u8..3,
        0usize..4,
        0u8..2,
        0u64..1 << 20,
    )
        .prop_map(
            |(k, d, b_pow, chan, threads_idx, quant_sel, seed)| Scenario {
                k,
                d,
                b: 4 << b_pow, // B ∈ {4, 8, 16}
                chan,
                threads_idx,
                quantized: quant_sel == 1,
                seed,
            },
        )
}

enum Rx {
    Symbols(RxSymbols),
    Bits(RxBits),
}

fn build(sc: &Scenario) -> (CodeParams, Rx) {
    // 20 spine values regardless of k keeps runtime flat and admits d ≤ 3.
    let n = sc.k * 20;
    let params = CodeParams::default()
        .with_n(n)
        .with_k(sc.k)
        .with_b(sc.b)
        .with_d(sc.d);
    let mut rng_state = sc.seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next_byte = move || {
        rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (rng_state >> 56) as u8
    };
    let msg = Message::random(n, &mut next_byte);
    let mut enc = Encoder::new(&params, &msg);
    let schedule = Schedule::new(params.num_spines(), params.tail, params.puncturing);
    let rx = match sc.chan {
        0 => {
            let mut rx = RxSymbols::new(schedule.clone());
            let mut ch = AwgnChannel::new(10.0, sc.seed ^ 0xA);
            rx.push(&ch.transmit(&enc.next_symbols(2 * schedule.symbols_per_pass())));
            Rx::Symbols(rx)
        }
        1 => {
            let mut rx = RxBits::new(schedule.clone());
            let mut ch = BscChannel::new(0.04, sc.seed ^ 0xB);
            rx.push(&ch.transmit_bits(&enc.next_bits(8 * schedule.symbols_per_pass())));
            Rx::Bits(rx)
        }
        _ => {
            let mut rx = RxSymbols::new(schedule.clone());
            let mut ch = RayleighChannel::new(18.0, 7, sc.seed ^ 0xC);
            let ys = ch.transmit(&enc.next_symbols(3 * schedule.symbols_per_pass()));
            let hs: Vec<_> = (0..ys.len()).map(|i| ch.csi(i).unwrap()).collect();
            rx.push_with_csi(&ys, &hs);
            Rx::Symbols(rx)
        }
    };
    (params, rx)
}

fn assert_bitwise_equal(serial: &DecodeResult, parallel: &DecodeResult, context: &str) {
    assert_eq!(serial.message, parallel.message, "{context}: message");
    assert_eq!(
        serial.cost.to_bits(),
        parallel.cost.to_bits(),
        "{context}: cost bits"
    );
}

fn profile_of(sc: &Scenario) -> MetricProfile {
    if sc.quantized {
        MetricProfile::Quantized
    } else {
        MetricProfile::Exact
    }
}

/// Decode `rxs` through both of the engine's pooled paths — one batch,
/// then one submit/drain generation — and check each block against
/// its serial decode.
fn assert_engine_paths_match_serial(
    engine: &DecodeEngine,
    dec: &BubbleDecoder,
    rxs: &[RxSymbols],
    context: &str,
) {
    let serial: Vec<DecodeResult> = rxs
        .iter()
        .map(|rx| DecodeRequest::new(dec, rx).decode())
        .collect();
    let batch = engine.decode_batch_parallel(dec, rxs);
    assert_eq!(batch.len(), serial.len(), "{context}: batch length");
    for (s, p) in serial.iter().zip(&batch) {
        assert_bitwise_equal(s, p, &format!("{context}: batch"));
    }
    for rx in rxs {
        engine.submit(dec, rx);
    }
    let drained = engine.drain();
    assert_eq!(drained.len(), serial.len(), "{context}: drain length");
    for (s, p) in serial.iter().zip(&drained) {
        let p = p.as_ref().expect("clean submit decodes");
        assert_bitwise_equal(s, p, &format!("{context}: submit/drain"));
    }
}

/// Decode hard bits through a pooled decode-service session and check
/// it against the serial decode.
fn assert_service_matches_serial(
    svc: &DecodeService,
    dec: &Arc<BubbleDecoder>,
    rx: &RxBits,
    context: &str,
) {
    let serial = DecodeRequest::new(dec, rx).decode();
    let mut session = svc
        .open_session(
            dec,
            SessionBuffer::Bits(rx.clone()),
            SessionOptions::default(),
        )
        .expect("admitted");
    session.submit().expect("queued");
    let pooled = session
        .wait()
        .expect("attempt in flight")
        .expect("clean decode");
    assert_bitwise_equal(&serial, &pooled, &format!("{context}: service"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pooled decode ≡ serial decode for arbitrary (k, d, B, channel,
    /// threads, seed), over both metric kinds AND both metric profiles
    /// (the quantized integer path must be exactly as deterministic on
    /// a worker as the exact one).
    #[test]
    fn engine_decode_is_bit_identical_to_serial(sc in arb_scenario()) {
        let (params, rx) = build(&sc);
        let threads = THREAD_COUNTS[sc.threads_idx];
        let dec = BubbleDecoder::new(&params).with_profile(profile_of(&sc));
        match &rx {
            Rx::Symbols(rx) => assert_engine_paths_match_serial(
                &DecodeEngine::new(threads),
                &dec,
                std::slice::from_ref(rx),
                &format!("{sc:?}"),
            ),
            Rx::Bits(rx) => assert_service_matches_serial(
                &DecodeService::new(threads, ServiceConfig::default()),
                &Arc::new(dec),
                rx,
                &format!("{sc:?}"),
            ),
        }
    }
}

#[test]
fn one_engine_decodes_a_parade_of_scenarios_identically() {
    // A single long-lived engine (and service) per thread count serves
    // heterogeneous codes and metrics back to back (the sweep
    // deployment shape); no state may leak between decodes.
    for &threads in &THREAD_COUNTS {
        let engine = DecodeEngine::new(threads);
        let svc = DecodeService::new(threads, ServiceConfig::default());
        for seed in 0..10u64 {
            let sc = Scenario {
                k: 2 + (seed % 3) as usize,
                d: 1 + (seed % 3) as usize,
                b: 4 << (seed % 3),
                chan: (seed % 3) as u8,
                threads_idx: 0,
                quantized: seed % 2 == 1,
                seed: seed * 77 + 5,
            };
            let (params, rx) = build(&sc);
            let dec = BubbleDecoder::new(&params).with_profile(profile_of(&sc));
            let context = format!("threads {threads} seed {seed}");
            match &rx {
                Rx::Symbols(rx) => assert_engine_paths_match_serial(
                    &engine,
                    &dec,
                    std::slice::from_ref(rx),
                    &context,
                ),
                Rx::Bits(rx) => assert_service_matches_serial(&svc, &Arc::new(dec), rx, &context),
            }
        }
    }
}

#[test]
fn batch_and_submit_drain_match_serial_batch() {
    let params = CodeParams::default().with_n(96).with_b(32);
    let schedule = Schedule::new(params.num_spines(), params.tail, params.puncturing);
    let rxs: Vec<RxSymbols> = (0..9u64)
        .map(|seed| {
            let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let msg = Message::random(96, move || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                (s >> 56) as u8
            });
            let mut enc = Encoder::new(&params, &msg);
            let mut rx = RxSymbols::new(schedule.clone());
            let mut ch = AwgnChannel::new(8.0, seed + 31);
            rx.push(&ch.transmit(&enc.next_symbols(2 * schedule.symbols_per_pass())));
            rx
        })
        .collect();
    let dec = BubbleDecoder::new(&params);
    // The serial reference shares one workspace across the batch, the
    // way a single-threaded receiver would decode it.
    let mut ws = DecodeWorkspace::new();
    let shared_ws: Vec<DecodeResult> = rxs
        .iter()
        .map(|rx| DecodeRequest::new(&dec, rx).workspace(&mut ws).decode())
        .collect();
    for (rx, s) in rxs.iter().zip(&shared_ws) {
        assert_bitwise_equal(
            &DecodeRequest::new(&dec, rx).decode(),
            s,
            "shared workspace",
        );
    }
    for &threads in &THREAD_COUNTS {
        assert_engine_paths_match_serial(
            &DecodeEngine::new(threads),
            &dec,
            &rxs,
            &format!("threads {threads}"),
        );
    }
}

#[test]
fn degenerate_csi_ties_resolve_identically_at_every_thread_count() {
    // The ∞-CSI regression from the NaN-safety work: one broken
    // observation makes EVERY candidate cost +∞, so the winner is
    // decided purely by tie-breaking. The canonical (cost, tree, path)
    // order must make serial and all pooled decodes agree exactly.
    let params = CodeParams::default().with_n(64).with_b(8);
    let mut s = 0x1234_5678_9abc_def1u64;
    let msg = Message::random(64, move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        (s >> 56) as u8
    });
    let mut enc = Encoder::new(&params, &msg);
    let schedule = Schedule::new(params.num_spines(), params.tail, params.puncturing);
    let mut rx = RxSymbols::new(schedule);
    let tx = enc.next_symbols(2 * params.symbols_per_pass());
    let hs: Vec<Complex> = (0..tx.len())
        .map(|i| {
            if i == 5 {
                Complex::new(f64::INFINITY, 0.0)
            } else {
                Complex::ONE
            }
        })
        .collect();
    rx.push_with_csi(&tx, &hs);
    for profile in [MetricProfile::Exact, MetricProfile::Quantized] {
        let dec = BubbleDecoder::new(&params).with_profile(profile);
        let serial = DecodeRequest::new(&dec, &rx).decode();
        assert!(
            serial.cost.is_infinite() && serial.cost > 0.0,
            "{profile:?}"
        );
        for &threads in &THREAD_COUNTS {
            assert_engine_paths_match_serial(
                &DecodeEngine::new(threads),
                &dec,
                std::slice::from_ref(&rx),
                &format!("inf-CSI {profile:?} threads {threads}"),
            );
        }
    }
}

#[test]
fn all_nan_observations_resolve_identically_at_every_thread_count() {
    // Every observation broken: every table entry clamps to +∞ and the
    // whole search is one big tie. Serial and pooled decodes must still
    // pick the same (garbage) message and +∞ cost.
    let params = CodeParams::default().with_n(64).with_b(4);
    let schedule = Schedule::new(params.num_spines(), params.tail, params.puncturing);
    let mut rx = RxSymbols::new(schedule);
    let nan = Complex::new(f64::NAN, f64::NAN);
    rx.push(&vec![nan; 2 * params.symbols_per_pass()]);
    for profile in [MetricProfile::Exact, MetricProfile::Quantized] {
        let dec = BubbleDecoder::new(&params).with_profile(profile);
        let serial = DecodeRequest::new(&dec, &rx).decode();
        assert!(serial.cost.is_infinite(), "{profile:?}");
        for &threads in &THREAD_COUNTS {
            assert_engine_paths_match_serial(
                &DecodeEngine::new(threads),
                &dec,
                std::slice::from_ref(&rx),
                &format!("all-NaN {profile:?} threads {threads}"),
            );
        }
    }
}
