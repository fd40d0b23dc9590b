//! The simple transimpedance amplifier of Fig. 4: a CMOS inverter with a
//! resistive feedback network, driven by a photodiode-like current source.
//!
//! Parameter space (paper Sec. III-A, `[start, end, increment]`):
//! width `[2, 10, 2] um` and multiplier `[2, 32, 2]` for each of the two
//! transistors, feedback resistors in series `[2, 20, 2]` and in parallel
//! `[1, 20, 1]` with a fixed 5.6 kOhm unit.
//!
//! Specifications: settling time, cutoff (-3 dB) frequency, and integrated
//! output noise.

use crate::problem::{
    check_indices, mode_case, CornerEvaluator, CornerPlan, CornerStrategy, CornerView, ParamSpec,
    SettleSpec, SimMode, SizingProblem, SpecDef, SpecKind,
};
use autockt_sim::ac::log_freqs;
use autockt_sim::dc::{DcOptions, WarmState};
use autockt_sim::device::{MosPolarity, Technology};
use autockt_sim::measure::settling_time;
use autockt_sim::netlist::{Circuit, Mosfet, Node, Step, GND};
use autockt_sim::pex::{extract, PexConfig};
use autockt_sim::tran::{transient, transient_warm, TranOptions};
use autockt_sim::{SimError, SolverConfig};

/// Index constants into the TIA spec vector.
pub mod spec_index {
    /// Settling time (s).
    pub const SETTLING: usize = 0;
    /// Cutoff frequency (Hz).
    pub const CUTOFF: usize = 1;
    /// Integrated output noise (V rms).
    pub const NOISE: usize = 2;
}

/// The transimpedance-amplifier sizing problem.
#[derive(Debug, Clone)]
pub struct Tia {
    tech: Technology,
    params: Vec<ParamSpec>,
    specs: Vec<SpecDef>,
    /// Unit feedback resistance (paper: 5.6 kOhm).
    pub r_unit: f64,
    /// Photodiode capacitance at the input (F).
    pub c_in: f64,
    /// Load capacitance at the output (F).
    pub c_load: f64,
    pex: PexConfig,
    transient_settling: bool,
    corner_strategy: CornerStrategy,
    solver: SolverConfig,
}

impl Default for Tia {
    fn default() -> Self {
        Tia::new(Technology::ptm45())
    }
}

impl Tia {
    /// Creates the TIA problem over a technology (the paper uses 45 nm
    /// BSIM predictive models).
    pub fn new(tech: Technology) -> Self {
        let params = vec![
            ParamSpec::swept("w_n", 2.0, 10.0, 2.0, 1e-6),
            ParamSpec::swept("m_n", 2.0, 32.0, 2.0, 1.0),
            ParamSpec::swept("w_p", 2.0, 10.0, 2.0, 1e-6),
            ParamSpec::swept("m_p", 2.0, 32.0, 2.0, 1.0),
            ParamSpec::swept("r_series", 2.0, 20.0, 2.0, 1.0),
            ParamSpec::swept("r_parallel", 1.0, 20.0, 1.0, 1.0),
        ];
        let specs = vec![
            SpecDef {
                name: "settling_time",
                unit: "s",
                kind: SpecKind::HardMax,
                lo: 150e-12,
                hi: 1000e-12,
                fail_value: 1.0,
            },
            SpecDef {
                name: "cutoff_freq",
                unit: "Hz",
                kind: SpecKind::HardMin,
                lo: 6.0e8,
                hi: 3.5e9,
                fail_value: 0.0,
            },
            SpecDef {
                name: "noise",
                unit: "Vrms",
                kind: SpecKind::HardMax,
                lo: 3.9e-4,
                hi: 6.0e-4,
                fail_value: 1.0,
            },
        ];
        Tia {
            tech,
            params,
            specs,
            r_unit: 5.6e3,
            c_in: 40e-15,
            c_load: 25e-15,
            pex: PexConfig::default(),
            transient_settling: false,
            corner_strategy: CornerStrategy::default(),
            solver: SolverConfig::default(),
        }
    }

    /// Overrides the linear-solver backend config for every solve this
    /// problem runs (DC Newton, AC sweeps, noise, step response,
    /// transient). The default picks dense or sparse automatically by MNA
    /// dimension — schematic-sized TIAs stay dense, deep-mesh PEX
    /// extractions (see [`PexConfig::mesh_depth`]) cross into the CSC
    /// sparse backend.
    pub fn with_solver_config(mut self, cfg: SolverConfig) -> Self {
        self.solver = cfg;
        self
    }

    /// The linear-solver backend config every evaluation dispatches on.
    pub fn solver_config(&self) -> SolverConfig {
        self.solver
    }

    /// Selects how `PexWorstCase` iterates the PVT corner set: batched
    /// lockstep (the default) or one corner at a time through the scalar
    /// kernels. With warm-start off the two produce bitwise-identical
    /// specs (property-tested); serial exists as the reference and
    /// benchmark baseline.
    pub fn with_corner_strategy(mut self, strategy: CornerStrategy) -> Self {
        self.corner_strategy = strategy;
        self
    }

    /// Replaces the parasitic-extraction configuration — e.g. to deepen
    /// the RC mesh (`PexConfig::mesh_depth`) for denser MNA systems.
    pub fn with_pex_config(mut self, pex: PexConfig) -> Self {
        self.pex = pex;
        self
    }

    /// The parasitic-extraction configuration used by `Pex` and
    /// `PexWorstCase` evaluations.
    pub fn pex_config(&self) -> &PexConfig {
        &self.pex
    }

    /// Measures settling with the nonlinear transient engine (a small step
    /// of photodiode current integrated through Newton time stepping)
    /// instead of the small-signal linear step response. Off by default —
    /// the linear response is exact for small-signal settling and orders
    /// of magnitude cheaper — but the transient path exercises large-signal
    /// effects and, evaluated through a session, warm-starts its initial
    /// DC operating point from the session's [`WarmState`] instead of
    /// cold-starting (applies to `Schematic` and `Pex` modes; the
    /// worst-case PVT sweep keeps the linear measurement).
    pub fn with_transient_settling(mut self, on: bool) -> Self {
        self.transient_settling = on;
        self
    }

    /// Builds the netlist at the given grid indices for a technology
    /// variant. Returns the circuit and its output node.
    ///
    /// # Panics
    ///
    /// Panics unless `idx` holds one in-range index per parameter
    /// (`simulate` checks this first and reports it as an error).
    pub fn build(&self, idx: &[usize], tech: &Technology) -> (Circuit, Node) {
        self.build_inner(idx, tech, None)
    }

    /// Like [`Tia::build`], with the photodiode replaced by a step current
    /// source (`0 -> i_step` at `t = 0`) for nonlinear transient settling
    /// measurements. Element and node order match `build` exactly, so the
    /// MNA structure — and therefore a session's warm-start slot — is
    /// interchangeable with the AC variant's.
    pub fn build_step(&self, idx: &[usize], tech: &Technology, i_step: f64) -> (Circuit, Node) {
        self.build_inner(
            idx,
            tech,
            Some(Step {
                v0: 0.0,
                v1: i_step,
                t_delay: 0.0,
            }),
        )
    }

    fn build_inner(&self, idx: &[usize], tech: &Technology, step: Option<Step>) -> (Circuit, Node) {
        assert_eq!(idx.len(), self.params.len(), "wrong parameter count");
        let w_n = self.params[0].values[idx[0]];
        let m_n = self.params[1].values[idx[1]];
        let w_p = self.params[2].values[idx[2]];
        let m_p = self.params[3].values[idx[3]];
        let n_ser = self.params[4].values[idx[4]];
        let n_par = self.params[5].values[idx[5]];
        let rf = self.r_unit * n_ser / n_par;

        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource(vdd, GND, tech.vdd, 0.0);
        // Photodiode: AC test current of 1 A (linearity makes magnitude
        // irrelevant), zero DC so the inverter self-biases through Rf.
        match step {
            None => ckt.isource(GND, vin, 0.0, 1.0),
            Some(s) => ckt.isource_step(GND, vin, s, 1.0),
        }
        ckt.capacitor(vin, GND, self.c_in);
        ckt.capacitor(out, GND, self.c_load);
        ckt.resistor(out, vin, rf);
        let l = 2.0 * tech.lmin;
        ckt.mosfet(Mosfet {
            polarity: MosPolarity::Nmos,
            d: out,
            g: vin,
            s: GND,
            w: w_n,
            l,
            mult: m_n,
            model: tech.nmos,
        });
        ckt.mosfet(Mosfet {
            polarity: MosPolarity::Pmos,
            d: out,
            g: vin,
            s: vdd,
            w: w_p,
            l,
            mult: m_p,
            model: tech.pmos,
        });
        (ckt, out)
    }

    /// The AC sweep grid of every fidelity.
    fn ac_freqs() -> Vec<f64> {
        log_freqs(1e5, 1e12, 10)
    }

    /// The noise integration grid of every fidelity. Public so the
    /// noise-corner benches time the exact production workload.
    pub fn noise_freqs() -> Vec<f64> {
        log_freqs(1e4, 1e11, 8)
    }

    fn dc_opts(&self) -> DcOptions {
        DcOptions {
            initial_v: self.tech.vdd / 2.0,
            solver: self.solver,
            ..DcOptions::default()
        }
    }

    /// Shared body of `simulate`/`simulate_warm`: `state` selects the
    /// warm (session-threaded) or cold measurement path. Every mode runs
    /// through the corner engine, with noise and settling as engine
    /// stages; `Schematic` and `Pex` are a one-corner plan. Settling
    /// integrates one shared window scaled to the slowest corner's cutoff
    /// (window 8.0), 2048 trapezoidal steps.
    fn simulate_inner(
        &self,
        idx: &[usize],
        mode: SimMode,
        mut state: Option<&mut WarmState>,
    ) -> Result<Vec<f64>, SimError> {
        check_indices(&self.params, idx)?;
        let engine = CornerEvaluator::new(
            CornerPlan::for_mode(mode),
            self.dc_opts(),
            Tia::ac_freqs(),
            self.corner_strategy,
        )
        .with_noise(Tia::noise_freqs())
        .with_settling(SettleSpec {
            steps: 2048,
            window: 8.0,
        });
        let mut specs = engine.evaluate(
            &self.specs,
            |_slot, pvt| {
                mode_case(mode, &self.tech, &self.pex, pvt, |tech| {
                    let (ckt, out) = self.build(idx, tech);
                    (ckt, out, 0)
                })
            },
            |v| self.corner_specs(v),
            state.as_deref_mut(),
        )?;
        if self.transient_settling && mode != SimMode::PexWorstCase {
            let (sckt, sout) = self.build_step(idx, &self.tech, Tia::STEP_CURRENT);
            let sckt = match mode {
                SimMode::Pex => extract(&sckt, &self.pex),
                _ => sckt,
            };
            specs[spec_index::SETTLING] =
                self.settling_transient(&sckt, sout, specs[spec_index::CUTOFF], state)?;
        }
        Ok(specs)
    }

    /// Step amplitude for the nonlinear transient settling measurement:
    /// small enough that the response stays in the small-signal regime
    /// (output deviation of a few millivolts), so it cross-checks the
    /// linear step response rather than measuring slewing.
    pub const STEP_CURRENT: f64 = 1e-6;

    /// Settling time from a nonlinear transient of the step-driven
    /// netlist, warm-starting the initial DC operating point from the
    /// session's state when available (the step circuit shares the AC
    /// variant's MNA structure and operating point, so the slot is hot).
    /// Transient non-convergence and an unsettled record report the spec's
    /// fail value; only an unsolvable operating point is an error.
    fn settling_transient(
        &self,
        ckt: &Circuit,
        out: Node,
        cutoff: f64,
        state: Option<&mut WarmState>,
    ) -> Result<f64, SimError> {
        let fail = self.specs[spec_index::SETTLING].fail_value;
        if cutoff <= 0.0 {
            return Ok(fail);
        }
        let mut opts = TranOptions::new(8.0 / cutoff, 512);
        opts.dc = self.dc_opts();
        let res = match state {
            Some(st) => transient_warm(ckt, &opts, 0, st),
            None => transient(ckt, &opts),
        };
        let res = match res {
            Ok(r) => r,
            Err(SimError::TranNoConvergence { .. }) => return Ok(fail),
            Err(e) => return Err(e),
        };
        let w = res.node_waveform(out);
        Ok(settling_time(&res.t, &w, 0.02).unwrap_or(fail))
    }

    /// One corner's specs: cutoff from the swept response, settling from
    /// the engine's step-response record (a corner without a valid cutoff
    /// has none and reports the fail value), and integrated output noise
    /// from the engine's noise analysis (a failed analysis reports the
    /// fail value).
    fn corner_specs(&self, v: &CornerView<'_>) -> Result<Vec<f64>, SimError> {
        let cutoff = v
            .resp
            .f_3db()
            .unwrap_or(self.specs[spec_index::CUTOFF].fail_value);
        let settling_fail = self.specs[spec_index::SETTLING].fail_value;
        let settling = match v.settle {
            Some(Ok((t, y))) => settling_time(t, y, 0.02).unwrap_or(settling_fail),
            Some(Err(e)) => return Err(e.clone()),
            None => settling_fail,
        };
        let noise = match v.noise {
            Some(Ok(n)) => n.out_vrms,
            _ => self.specs[spec_index::NOISE].fail_value,
        };
        Ok(vec![settling, cutoff, noise])
    }
}

impl SizingProblem for Tia {
    fn name(&self) -> &'static str {
        "tia"
    }

    fn params(&self) -> &[ParamSpec] {
        &self.params
    }

    fn specs(&self) -> &[SpecDef] {
        &self.specs
    }

    fn simulate(&self, idx: &[usize], mode: SimMode) -> Result<Vec<f64>, SimError> {
        self.simulate_inner(idx, mode, None)
    }

    fn simulate_warm(
        &self,
        idx: &[usize],
        mode: SimMode,
        state: &mut WarmState,
    ) -> Result<Vec<f64>, SimError> {
        self.simulate_inner(idx, mode, Some(state))
    }

    fn solver_config(&self) -> SolverConfig {
        self.solver
    }

    fn simulate_cfg(
        &self,
        idx: &[usize],
        mode: SimMode,
        cfg: SolverConfig,
    ) -> Result<Vec<f64>, SimError> {
        self.clone().with_solver_config(cfg).simulate(idx, mode)
    }

    fn simulate_warm_cfg(
        &self,
        idx: &[usize],
        mode: SimMode,
        cfg: SolverConfig,
        state: &mut WarmState,
    ) -> Result<Vec<f64>, SimError> {
        self.clone()
            .with_solver_config(cfg)
            .simulate_warm(idx, mode, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn center_design_simulates() {
        let tia = Tia::default();
        let idx: Vec<usize> = tia.cardinalities().iter().map(|k| k / 2).collect();
        let specs = tia.simulate(&idx, SimMode::Schematic).unwrap();
        assert_eq!(specs.len(), 3);
        let (ts, fc, vn) = (specs[0], specs[1], specs[2]);
        assert!(ts > 0.0 && ts < 1e-6, "settling {ts}");
        assert!(fc > 1e6 && fc < 1e12, "cutoff {fc}");
        assert!(vn > 1e-9 && vn < 1e-1, "noise {vn}");
    }

    #[test]
    fn more_feedback_resistance_lowers_bandwidth() {
        let tia = Tia::default();
        let mut lo_r: Vec<usize> = tia.cardinalities().iter().map(|k| k / 2).collect();
        let mut hi_r = lo_r.clone();
        lo_r[4] = 0; // fewest series units
        lo_r[5] = tia.cardinalities()[5] - 1; // most parallel
        hi_r[4] = tia.cardinalities()[4] - 1;
        hi_r[5] = 0;
        let s_lo = tia.simulate(&lo_r, SimMode::Schematic).unwrap();
        let s_hi = tia.simulate(&hi_r, SimMode::Schematic).unwrap();
        assert!(
            s_hi[spec_index::CUTOFF] < s_lo[spec_index::CUTOFF],
            "bigger Rf must be slower: {} vs {}",
            s_hi[spec_index::CUTOFF],
            s_lo[spec_index::CUTOFF]
        );
    }

    #[test]
    fn transient_settling_cross_checks_linear_and_threads_warm_state() {
        let lin = Tia::default();
        let tran = Tia::default().with_transient_settling(true);
        let idx: Vec<usize> = lin.cardinalities().iter().map(|k| k / 2).collect();
        let s_lin = lin.simulate(&idx, SimMode::Schematic).unwrap();
        // Cold reference path.
        let s_cold = tran.simulate(&idx, SimMode::Schematic).unwrap();
        // Session path: the WarmState threads through the transient's DC.
        let mut session = crate::problem::EvalSession::borrowed(&tran, SimMode::Schematic);
        let s_warm = session.evaluate(&idx).unwrap();
        let (lin_t, cold_t, warm_t) = (
            s_lin[spec_index::SETTLING],
            s_cold[spec_index::SETTLING],
            s_warm[spec_index::SETTLING],
        );
        assert!(cold_t > 0.0 && cold_t < 1e-6, "settling {cold_t}");
        // A small-amplitude step stays small-signal: the nonlinear
        // settling must agree with the linear response up to integration
        // and device-cap modelling differences.
        assert!(
            (cold_t - lin_t).abs() <= 0.5 * lin_t.max(cold_t),
            "transient settling {cold_t} vs linear {lin_t}"
        );
        // Warm and cold transient converge to the same fixed point.
        assert!(
            (warm_t - cold_t).abs() <= 5e-3 * (1.0 + cold_t.abs()),
            "warm {warm_t} vs cold {cold_t}"
        );
        // The flag leaves the other specs untouched.
        assert_eq!(s_cold[spec_index::CUTOFF], s_lin[spec_index::CUTOFF]);
        assert_eq!(s_cold[spec_index::NOISE], s_lin[spec_index::NOISE]);
    }

    #[test]
    fn forced_sparse_backend_matches_dense_specs() {
        let tia = Tia::default();
        let idx: Vec<usize> = tia.cardinalities().iter().map(|k| k / 2).collect();
        let dense = tia.simulate(&idx, SimMode::Schematic).unwrap();
        // Forcing the CSC backend well below the auto crossover must land
        // on the same specs to solver tolerance.
        let sparse = tia
            .simulate_cfg(&idx, SimMode::Schematic, SolverConfig::sparse())
            .unwrap();
        for (d, s) in dense.iter().zip(&sparse) {
            assert!((d - s).abs() <= 5e-3 * (1.0 + d.abs()), "{d} vs {s}");
        }
        // The session-level override routes through the same hook.
        let mut sess = crate::problem::EvalSession::borrowed(&tia, SimMode::Schematic)
            .with_solver_config(SolverConfig::sparse());
        let via_session = sess.evaluate(&idx).unwrap();
        assert_eq!(sess.solve_count(), 1);
        for (v, d) in via_session.iter().zip(&dense) {
            assert!((v - d).abs() <= 5e-3 * (1.0 + d.abs()), "{v} vs {d}");
        }
    }

    #[test]
    fn pex_is_slower_than_schematic() {
        let tia = Tia::default();
        let idx: Vec<usize> = tia.cardinalities().iter().map(|k| k / 2).collect();
        let sch = tia.simulate(&idx, SimMode::Schematic).unwrap();
        let pex = tia.simulate(&idx, SimMode::Pex).unwrap();
        assert!(pex[spec_index::CUTOFF] < sch[spec_index::CUTOFF]);
    }

    #[test]
    fn simulation_is_deterministic() {
        let tia = Tia::default();
        let idx = vec![1, 3, 2, 5, 4, 9];
        let a = tia.simulate(&idx, SimMode::Schematic).unwrap();
        let b = tia.simulate(&idx, SimMode::Schematic).unwrap();
        assert_eq!(a, b);
    }

    /// A wrong index count or an out-of-range index is an options error
    /// from both `simulate` and `simulate_warm`, in every mode — never a
    /// panic in the netlist builder.
    #[test]
    fn bad_indices_are_invalid_options() {
        let p = Tia::default();
        let cards = p.cardinalities();
        let mut past_end: Vec<usize> = cards.iter().map(|k| k / 2).collect();
        past_end[1] = cards[1];
        let short = vec![0; cards.len() - 1];
        for idx in [vec![], short, past_end] {
            for mode in [SimMode::Schematic, SimMode::Pex, SimMode::PexWorstCase] {
                let cold = p.simulate(&idx, mode);
                let warm = p.simulate_warm(&idx, mode, &mut WarmState::new());
                for r in [cold, warm] {
                    assert!(
                        matches!(r, Err(SimError::InvalidOptions { .. })),
                        "{idx:?} {mode:?}: {r:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn space_size_matches_structure() {
        let tia = Tia::default();
        // 5 * 16 * 5 * 16 * 10 * 20 = 1.28e6
        assert!((tia.log10_space_size() - 6.107).abs() < 0.01);
    }

    #[test]
    fn worst_case_reduction_directions() {
        let specs = vec![
            SpecDef {
                name: "a",
                unit: "",
                kind: SpecKind::HardMin,
                lo: 0.0,
                hi: 1.0,
                fail_value: 0.0,
            },
            SpecDef {
                name: "b",
                unit: "",
                kind: SpecKind::HardMax,
                lo: 0.0,
                hi: 1.0,
                fail_value: 9.0,
            },
        ];
        let rows = vec![vec![3.0, 5.0], vec![2.0, 7.0], vec![4.0, 6.0]];
        assert_eq!(crate::problem::worst_case(&specs, &rows), vec![2.0, 7.0]);
    }
}
