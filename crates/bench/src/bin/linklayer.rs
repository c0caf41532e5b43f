//! §6 link-layer study: effective throughput vs burst size under
//! half-duplex feedback — the pause-point problem the paper raises and
//! defers to follow-on work (thesis ref. \[16\]).
//!
//! ```sh
//! cargo run --release -p bench --bin linklayer -- [--trials 6]
//! ```

use bench::Args;
use spinal_core::{CodeParams, DecodeWorkspace};
use spinal_sim::{run_parallel_with, LinkLayerRun, SpinalRun};

fn main() {
    let args = Args::parse();
    let trials = args.usize("trials", 6);
    let feedback = args.usize("feedback-symbols", 12);
    let bursts = [4usize, 8, 16, 33, 66, 132, 264, 528];
    let snrs = [5.0, 15.0, 25.0];

    let mut jobs: Vec<(usize, f64)> = Vec::new();
    for &b in &bursts {
        for &s in &snrs {
            jobs.push((b, s));
        }
    }
    // Grid jobs fan out across sweep workers, which get the whole
    // thread budget; each worker decodes its trials through its own
    // workspace.
    let threads = bench::cli_threads(&args).get();
    let metric = bench::cli_metric(&args);

    let rows = run_parallel_with(jobs.len(), threads, DecodeWorkspace::new, |ws, j| {
        let (burst, snr) = jobs[j];
        let ll = LinkLayerRun {
            run: SpinalRun::new(CodeParams::default().with_n(256)).with_profile(metric),
            burst_symbols: burst,
            feedback_symbols: feedback,
        };
        let mut rate = 0.0;
        let mut ideal = 0.0;
        for t in 0..trials {
            let seed = ((j * trials + t) as u64) << 6;
            rate += ll.run_trial_with_workspace(snr, seed, ws).effective_rate;
            ideal += ll.ideal_rate_with_workspace(snr, seed, ws);
        }
        (rate / trials as f64, ideal / trials as f64)
    });

    println!("# §6 pause-point study: effective rate vs burst size (feedback={feedback} symbols)");
    println!("burst_symbols,rate_5db,eff_5db,rate_15db,eff_15db,rate_25db,eff_25db");
    for (bi, &burst) in bursts.iter().enumerate() {
        print!("{burst}");
        for si in 0..snrs.len() {
            let (rate, ideal) = rows[bi * snrs.len() + si];
            print!(
                ",{rate:.3},{:.2}",
                if ideal > 0.0 { rate / ideal } else { 0.0 }
            );
        }
        println!();
    }
    println!("\n# expectation: an interior burst size maximises effective rate at each SNR;");
    println!("# the optimum grows as SNR falls (more symbols needed per block anyway)");
}
