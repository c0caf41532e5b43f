//! Property tests for the [`DecodeRequest`] dispatch combinations: a
//! plain request, one reusing a caller-held workspace, and one carrying
//! a `TableCache` across repeated decodes (the second of which folds in
//! nothing new) are the SAME computation, so their results must be
//! bit-identical — messages and costs — for arbitrary parameters across
//! all three channel families and both metric profiles. A cache handed
//! to a bit-observation request is ignored. A second property reuses
//! ONE workspace across every generated case, catching any state
//! leakage between attempts.

use proptest::prelude::*;
use spinal_codes::channel::BitChannel;
use spinal_codes::core::{MetricProfile, TableCache};
use spinal_codes::{
    AwgnChannel, BscChannel, BubbleDecoder, Channel, CodeParams, DecodeRequest, DecodeWorkspace,
    Encoder, Message, RayleighChannel, RxBits, RxObservations, RxSymbols, Schedule,
};

/// One generated decode scenario: parameters + received buffer.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    k: usize,
    d: usize,
    b: usize,
    /// 0 = AWGN, 1 = BSC, 2 = Rayleigh with CSI.
    chan: u8,
    /// Decode under the quantized integer profile instead of exact.
    quantized: bool,
    seed: u64,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        2usize..5,
        1usize..4,
        0usize..3,
        0u8..3,
        any::<bool>(),
        0u64..1 << 20,
    )
        .prop_map(|(k, d, b_pow, chan, quantized, seed)| Scenario {
            k,
            d,
            b: 4 << b_pow, // B ∈ {4, 8, 16}
            chan,
            quantized,
            seed,
        })
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

/// Decode `rx` through every request combination — plain, caller
/// workspace, and workspace + cache twice — as `(message, cost bits)`.
fn decode_all(
    sc: &Scenario,
    params: &CodeParams,
    rx: &Rx,
    ws: &mut DecodeWorkspace,
) -> Vec<(Message, u64)> {
    let profile = if sc.quantized {
        MetricProfile::Quantized
    } else {
        MetricProfile::Exact
    };
    let dec = BubbleDecoder::new(params).with_profile(profile);
    let obs: RxObservations = match rx {
        Rx::Symbols(rx) => rx.into(),
        Rx::Bits(rx) => rx.into(),
    };
    let mut cache = TableCache::new();
    let mut outs = vec![
        DecodeRequest::new(&dec, obs).decode(),
        DecodeRequest::new(&dec, obs).workspace(ws).decode(),
    ];
    for _ in 0..2 {
        outs.push(
            DecodeRequest::new(&dec, obs)
                .workspace(ws)
                .cache(&mut cache)
                .decode(),
        );
    }
    outs.into_iter()
        .map(|out| (out.message, out.cost.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every request combination agrees (message and cost bits) for
    /// arbitrary (k, d, B, channel, profile, seed).
    #[test]
    fn workspace_decode_is_identical(sc in arb_scenario()) {
        let (params, rx) = build(&sc);
        let outs = decode_all(&sc, &params, &rx, &mut DecodeWorkspace::new());
        for (i, out) in outs.iter().enumerate().skip(1) {
            prop_assert_eq!(out, &outs[0], "combination {} ({:?})", i, sc);
        }
    }
}

#[test]
fn one_workspace_serves_every_scenario() {
    // The same workspace instance decodes a parade of heterogeneous
    // scenarios (sizes, depths, metric kinds, profiles) and must match
    // a fresh workspace each time — no state may leak between attempts.
    let mut ws = DecodeWorkspace::new();
    for seed in 0..12u64 {
        let sc = Scenario {
            k: 2 + (seed % 3) as usize,
            d: 1 + (seed % 3) as usize,
            b: 4 << (seed % 3),
            chan: (seed % 3) as u8,
            quantized: seed % 2 == 1,
            seed: seed * 7919,
        };
        let (params, rx) = build(&sc);
        let outs = decode_all(&sc, &params, &rx, &mut ws);
        for (i, out) in outs.iter().enumerate().skip(1) {
            assert_eq!(out, &outs[0], "seed {seed} combination {i}");
        }
    }
}
