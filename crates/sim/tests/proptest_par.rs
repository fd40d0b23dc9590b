//! Property-based tests for the tile scheduler (`autockt_sim::par`):
//! every threaded walk — the scalar AC sweep, the scalar noise
//! analysis, and the cold corner-batched noise analysis — must be
//! *bitwise* equal to its serial reference under any forced lane count,
//! and the process-wide workspace pools must preserve that equality when they
//! are re-used across calls of differing dimension.
//!
//! `Parallelism::Threads(n)` is the forced mode: it bypasses the
//! small-dimension Auto gates, so these properties exercise real
//! multi-lane schedules even on dimensions the Auto policy would run
//! serially.

use autockt_sim::ac::{ac_sweep_cfg, AcBatchWorkspace, AcSolver, AcWorkspace};
use autockt_sim::dc::{dc_operating_point, DcOptions, OpPoint};
use autockt_sim::netlist::{Circuit, Node, GND};
use autockt_sim::noise::{noise_analysis_batch, noise_analysis_cfg};
use autockt_sim::{Parallelism, SolverConfig};
use proptest::prelude::*;

/// The forced lane counts every property sweeps over (ISSUE 10): a
/// degenerate single lane, even splits, and a count that leaves a
/// ragged tail chunk.
const LANES: [usize; 4] = [1, 2, 4, 7];

/// An `n`-segment RC ladder with an AC-driven source (magnitude 1), so
/// both the transfer function and the noise signal gain are nonzero.
/// MNA dimension `n + 2`: `n` internal nodes, the drive node, and the
/// vsource branch current.
fn noisy_ladder(n: usize, r_scale: f64) -> (Circuit, Node) {
    let mut ckt = Circuit::new();
    let mut prev = ckt.node("drive");
    ckt.vsource(prev, GND, 1.0, 1.0);
    for i in 0..n {
        let node = ckt.node(&format!("n{i}"));
        ckt.resistor(prev, node, r_scale * (1.0 + i as f64));
        ckt.capacitor(node, GND, 1e-12);
        prev = node;
    }
    // A resistive path to ground so the DC solution is nontrivial.
    ckt.resistor(prev, GND, 10.0 * r_scale);
    (ckt, prev)
}

/// A strictly increasing frequency grid spanning several decades.
fn freq_grid(npts: usize) -> Vec<f64> {
    (0..npts).map(|k| 1e3 * 2f64.powi(k as i32)).collect()
}

proptest! {
    /// The threaded scalar AC sweep is bitwise-equal to the serial
    /// sweep for every forced lane count, with the MNA dimension and
    /// the dense/sparse crossover varied against each other so both
    /// per-point factorization routes are covered.
    #[test]
    fn threaded_ac_sweep_is_bitwise_serial(
        segs in 3usize..32,
        npts in 2usize..14,
        crossover in 2usize..40,
        r_scale in 10.0..1e4f64,
    ) {
        let (ckt, out) = noisy_ladder(segs, r_scale);
        let op = dc_operating_point(&ckt, &DcOptions::default()).expect("ladder solves");
        let freqs = freq_grid(npts);
        let base = SolverConfig { crossover, ..SolverConfig::default() };
        let mut ws = AcWorkspace::new();
        let serial = ac_sweep_cfg(
            &ckt, &op, &freqs, out,
            base.with_parallelism(Parallelism::Off),
            &mut ws,
        ).expect("serial sweep");
        for t in LANES {
            let mut wt = AcWorkspace::new();
            let threaded = ac_sweep_cfg(
                &ckt, &op, &freqs, out,
                base.with_parallelism(Parallelism::Threads(t)),
                &mut wt,
            ).expect("threaded sweep");
            prop_assert_eq!(&serial.h, &threaded.h, "lanes={}", t);
        }
    }

    /// The threaded scalar noise analysis is bitwise-equal to the
    /// serial walk — every derived field, including the integrated rms
    /// figures whose trapezoid accumulation order must survive the
    /// tiling — for every forced lane count.
    #[test]
    fn threaded_noise_analysis_is_bitwise_serial(
        segs in 3usize..24,
        npts in 2usize..12,
        crossover in 2usize..40,
        r_scale in 10.0..1e4f64,
    ) {
        let (ckt, out) = noisy_ladder(segs, r_scale);
        let op = dc_operating_point(&ckt, &DcOptions::default()).expect("ladder solves");
        let freqs = freq_grid(npts);
        let base = SolverConfig { crossover, ..SolverConfig::default() };
        let mut ws = AcWorkspace::new();
        let serial = noise_analysis_cfg(
            &ckt, &op, out, &freqs, 300.0,
            base.with_parallelism(Parallelism::Off),
            &mut ws,
        ).expect("serial noise");
        for t in LANES {
            let mut wt = AcWorkspace::new();
            let threaded = noise_analysis_cfg(
                &ckt, &op, out, &freqs, 300.0,
                base.with_parallelism(Parallelism::Threads(t)),
                &mut wt,
            ).expect("threaded noise");
            prop_assert_eq!(&serial.out_psd, &threaded.out_psd, "lanes={}", t);
            prop_assert_eq!(&serial.gain, &threaded.gain, "lanes={}", t);
            prop_assert_eq!(serial.out_vrms, threaded.out_vrms, "lanes={}", t);
            prop_assert_eq!(
                serial.input_referred_rms, threaded.input_referred_rms,
                "lanes={}", t
            );
        }
    }

    /// The cold corner-batched noise dispatcher is bitwise-equal under
    /// every forced lane count to its serial per-corner route: threaded
    /// (corner × frequency) tiles and the one-corner-after-another walk
    /// run the same scalar points.
    #[test]
    fn threaded_noise_batch_is_bitwise_serial(
        segs in 3usize..20,
        scales in prop::collection::vec(10.0..1e4f64, 1..4),
        npts in 2usize..8,
        crossover in 2usize..40,
    ) {
        let corners: Vec<(Circuit, Node)> =
            scales.iter().map(|&r| noisy_ladder(segs, r)).collect();
        let ops: Vec<OpPoint> = corners
            .iter()
            .map(|(c, _)| dc_operating_point(c, &DcOptions::default()).expect("ladder solves"))
            .collect();
        let op_refs: Vec<&OpPoint> = ops.iter().collect();
        let outs: Vec<Node> = corners.iter().map(|(_, o)| *o).collect();
        let temps: Vec<f64> = (0..corners.len()).map(|i| 250.0 + 25.0 * i as f64).collect();
        let freqs = freq_grid(npts);
        let base = SolverConfig { crossover, ..SolverConfig::default() };
        let run = |par: Parallelism| {
            let solvers: Vec<AcSolver<'_>> = corners
                .iter()
                .zip(&ops)
                .map(|((c, _), op)| AcSolver::new(c, op).with_config(base.with_parallelism(par)))
                .collect();
            noise_analysis_batch(
                &solvers, &op_refs, &outs, &freqs, &temps,
                &mut AcBatchWorkspace::new(),
            )
        };
        let serial = run(Parallelism::Off);
        for t in LANES {
            prop_assert_eq!(&serial, &run(Parallelism::Threads(t)), "lanes={}", t);
        }
    }

    /// Re-using the process-wide workspace pools across calls of
    /// *different* dimension keeps every call bitwise-equal to serial:
    /// a pooled lane workspace checked out for a large sweep must be
    /// indistinguishable from a fresh one when a smaller sweep checks
    /// it out next (and vice versa).
    #[test]
    fn workspace_pool_reuse_across_calls_stays_bitwise(
        segs in prop::collection::vec(3usize..32, 3..6),
        npts in 2usize..10,
        crossover in 2usize..40,
        r_scale in 10.0..1e4f64,
    ) {
        let freqs = freq_grid(npts);
        let base = SolverConfig { crossover, ..SolverConfig::default() };
        for (i, &s) in segs.iter().enumerate() {
            let t = LANES[i % LANES.len()].max(2);
            let (ckt, out) = noisy_ladder(s, r_scale);
            let op = dc_operating_point(&ckt, &DcOptions::default()).expect("ladder solves");
            let mut ws = AcWorkspace::new();
            let serial = ac_sweep_cfg(
                &ckt, &op, &freqs, out,
                base.with_parallelism(Parallelism::Off),
                &mut ws,
            ).expect("serial sweep");
            let threaded = ac_sweep_cfg(
                &ckt, &op, &freqs, out,
                base.with_parallelism(Parallelism::Threads(t)),
                &mut ws,
            ).expect("threaded sweep");
            prop_assert_eq!(&serial.h, &threaded.h, "call #{} segs={} lanes={}", i, s, t);
            let sn = noise_analysis_cfg(
                &ckt, &op, out, &freqs, 300.0,
                base.with_parallelism(Parallelism::Off),
                &mut ws,
            ).expect("serial noise");
            let tn = noise_analysis_cfg(
                &ckt, &op, out, &freqs, 300.0,
                base.with_parallelism(Parallelism::Threads(t)),
                &mut ws,
            ).expect("threaded noise");
            prop_assert_eq!(&sn.out_psd, &tn.out_psd, "call #{} segs={}", i, s);
            prop_assert_eq!(sn.out_vrms, tn.out_vrms, "call #{} segs={}", i, s);
        }
    }
}
