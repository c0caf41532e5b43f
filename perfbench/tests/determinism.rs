//! The benchmark's own checks: a seed fixes the work exactly, another
//! seed draws another channel, the harness's step-by-step transfer loop
//! matches the library's, and `BENCHMARK.json` names what the command
//! prints. Run with `cargo test --release --manifest-path
//! perfbench/Cargo.toml` (the debug build decodes slowly).

use perfbench::net::{run_transfer, NetBench, NetSpec};
use perfbench::svc::SvcBench;
use perfbench::trace::Tracer;
use perfbench::{BatchOut, Counts, END_TO_END, PER_LAYER, WORKLOADS};
use spinal_channel::Impairments;
use spinal_net::run_loopback_transfer;

fn small_lossy(seed: u64) -> NetBench {
    let mut b = NetBench::new(NetSpec::small_lossy(), seed);
    b.inputs.truncate(3);
    b
}

fn svc(seed: u64) -> SvcBench {
    let mut b = SvcBench::new(seed);
    b.inputs.truncate(96);
    b
}

fn counts_of(out: &BatchOut) -> Counts {
    assert!(out.errors.is_empty(), "{:?}", out.errors);
    assert_eq!(out.failed, 0);
    out.counts
}

#[test]
fn same_seed_same_counts_other_seed_other_draws() {
    let tr = Tracer::new();
    let a = counts_of(&small_lossy(7).run_batch(&tr));
    // A traced repetition does the same work as an untraced one.
    tr.start_rep(1, true);
    let b = counts_of(&small_lossy(7).run_batch(&tr));
    tr.start_rep(2, false);
    let c = counts_of(&small_lossy(8).run_batch(&tr));
    assert_eq!(a, b);
    assert_ne!(a.draws, c.draws);
    assert_eq!(a.decoded, a.blocks);

    let mut s7 = svc(7);
    let x = counts_of(&s7.run_batch(&tr));
    let y = counts_of(&s7.run_batch(&tr));
    let z = counts_of(&svc(8).run_batch(&tr));
    assert_eq!(x, y);
    assert_ne!(x.draws, z.draws);
    assert_eq!(x.decoded, 96);
    assert!(x.rounds > x.units, "some sessions must need a second pass");
}

#[test]
fn harness_loop_reproduces_the_library_transfer() {
    let bench = small_lossy(3);
    let spec = &bench.spec;
    for input in &bench.inputs {
        let mut out = BatchOut::default();
        run_transfer(spec, input, &Tracer::new(), &mut out);
        let report = run_loopback_transfer(
            &spec.params,
            &input.payload,
            spec.noise,
            spec.impair,
            Impairments::clean(),
            input.seed,
            spec.cfg,
        );
        assert_eq!(report.payload(), Some(&input.payload[..]));
        assert_eq!(out.delivered_bytes, input.payload.len() as u64);
        let c = out.counts;
        assert_eq!(c.symbols, report.symbols_sent as u64);
        assert_eq!(c.datagrams, report.datagrams_sent as u64);
        assert_eq!(c.rounds, report.rounds as u64);
        assert_eq!(c.attempts, report.decode_attempts as u64);
        assert_eq!(c.blocks, report.n_blocks as u64);
    }
}

#[test]
fn benchmark_json_names_what_the_command_prints() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let names: Vec<&str> = json
        .split("\"name\":")
        .skip(1)
        .filter_map(|s| s.trim_start().strip_prefix('"')?.split('"').next())
        .collect();
    let expected: Vec<&str> = WORKLOADS
        .iter()
        .copied()
        .chain(END_TO_END.iter().map(|m| m.0))
        .chain(PER_LAYER.iter().map(|m| m.0))
        .collect();
    assert_eq!(names, expected);
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "bulk_4k", "--seed", "x"],
        &["--workload", "bulk_4k", "--trace", "2"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("run perfbench");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
    }
}
