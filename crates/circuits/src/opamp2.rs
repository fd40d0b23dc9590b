//! The two-stage operational amplifier of Fig. 6: NMOS differential pair
//! with PMOS current-mirror load, PMOS common-source second stage with an
//! NMOS current sink, Miller compensation capacitor, biased by a current
//! mirror from a fixed reference.
//!
//! Parameter space (paper Sec. III-B): every transistor width is
//! `[1, 100, 1] * 0.5 um` and the compensation capacitor is
//! `[0.1, 10.0, 0.1] * 1 pF` — six widths (matched pairs share one
//! parameter) plus the capacitor give the paper's 1e14-point space.
//!
//! Specifications: DC gain, unity-gain bandwidth, phase margin (hard
//! constraints) and bias current (minimized, the power proxy).

use crate::problem::{
    check_indices, mode_case, CornerEvaluator, CornerPlan, CornerStrategy, CornerView, ParamSpec,
    SimMode, SizingProblem, SpecDef, SpecKind,
};
use autockt_sim::ac::log_freqs;
use autockt_sim::dc::{DcOptions, WarmState};
use autockt_sim::device::{MosPolarity, Technology};
use autockt_sim::netlist::{Circuit, Mosfet, Node, GND};
use autockt_sim::pex::PexConfig;
use autockt_sim::{SimError, SolverConfig};

/// Index constants into the op-amp spec vector.
pub mod spec_index {
    /// DC gain (V/V).
    pub const GAIN: usize = 0;
    /// Unity-gain bandwidth (Hz).
    pub const UGBW: usize = 1;
    /// Phase margin (degrees).
    pub const PM: usize = 2;
    /// Total supply current (A), minimized.
    pub const IBIAS: usize = 3;
}

/// The two-stage op-amp sizing problem.
#[derive(Debug, Clone)]
pub struct OpAmp2 {
    tech: Technology,
    params: Vec<ParamSpec>,
    specs: Vec<SpecDef>,
    /// Supply voltage used by this testbench (V).
    pub vdd: f64,
    /// Input common-mode voltage (V).
    pub vcm: f64,
    /// Bias reference current (A).
    pub iref: f64,
    /// Output load capacitance (F).
    pub c_load: f64,
    pex: PexConfig,
    corner_strategy: CornerStrategy,
    solver: SolverConfig,
}

impl Default for OpAmp2 {
    fn default() -> Self {
        OpAmp2::new(Technology::ptm45())
    }
}

impl OpAmp2 {
    /// Creates the op-amp problem over a technology.
    pub fn new(tech: Technology) -> Self {
        let params = vec![
            ParamSpec::swept("w_in", 1.0, 100.0, 1.0, 0.5e-6), // M1/M2
            ParamSpec::swept("w_load", 1.0, 100.0, 1.0, 0.5e-6), // M3/M4
            ParamSpec::swept("w_tail", 1.0, 100.0, 1.0, 0.5e-6), // M5
            ParamSpec::swept("w_cs", 1.0, 100.0, 1.0, 0.5e-6), // M6
            ParamSpec::swept("w_sink", 1.0, 100.0, 1.0, 0.5e-6), // M7
            ParamSpec::swept("w_ref", 1.0, 100.0, 1.0, 0.5e-6), // M8
            ParamSpec::swept("cc", 0.1, 10.0, 0.1, 1e-12),
        ];
        let specs = vec![
            SpecDef {
                name: "gain",
                unit: "V/V",
                kind: SpecKind::HardMin,
                lo: 240.0,
                hi: 400.0,
                fail_value: 0.0,
            },
            SpecDef {
                name: "ugbw",
                unit: "Hz",
                kind: SpecKind::HardMin,
                lo: 1.5e7,
                hi: 5.0e7,
                fail_value: 0.0,
            },
            SpecDef {
                name: "phase_margin",
                unit: "deg",
                kind: SpecKind::HardMin,
                lo: 60.0,
                hi: 60.0,
                fail_value: 0.0,
            },
            SpecDef {
                name: "ibias",
                unit: "A",
                kind: SpecKind::Minimize,
                lo: 2.0e-5,
                hi: 2.5e-4,
                fail_value: 1.0,
            },
        ];
        OpAmp2 {
            tech,
            params,
            specs,
            vdd: 1.2,
            vcm: 0.7,
            iref: 20e-6,
            c_load: 1e-12,
            pex: PexConfig::default(),
            corner_strategy: CornerStrategy::default(),
            solver: SolverConfig::default(),
        }
    }

    /// Overrides the linear-solver backend config for every solve this
    /// problem runs; the default dispatches dense or sparse automatically
    /// by MNA dimension (see [`SolverConfig`]).
    pub fn with_solver_config(mut self, cfg: SolverConfig) -> Self {
        self.solver = cfg;
        self
    }

    /// The linear-solver backend config every evaluation dispatches on.
    pub fn solver_config(&self) -> SolverConfig {
        self.solver
    }

    /// Selects how `PexWorstCase` iterates the PVT corner set (see
    /// [`CornerStrategy`]; batched lockstep by default).
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

    /// Builds the netlist at grid indices `idx`. Returns the circuit, the
    /// output node, and the index of the supply source (for bias-current
    /// measurement).
    ///
    /// # Panics
    ///
    /// Panics unless `idx` holds one in-range index per parameter
    /// (`simulate` checks this first and reports it as an error).
    pub fn build(&self, idx: &[usize], tech: &Technology) -> (Circuit, Node, usize) {
        assert_eq!(idx.len(), self.params.len(), "wrong parameter count");
        let w_in = self.params[0].values[idx[0]];
        let w_load = self.params[1].values[idx[1]];
        let w_tail = self.params[2].values[idx[2]];
        let w_cs = self.params[3].values[idx[3]];
        let w_sink = self.params[4].values[idx[4]];
        let w_ref = self.params[5].values[idx[5]];
        let cc = self.params[6].values[idx[6]];
        let l = 2.0 * tech.lmin;

        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let vinp = ckt.node("vinp");
        let vinn = ckt.node("vinn");
        let bias = ckt.node("bias");
        let tail = ckt.node("tail");
        let x = ckt.node("mirror"); // diode side of the PMOS mirror
        let d1 = ckt.node("stage1");
        let out = ckt.node("out");

        ckt.vsource(vdd, GND, self.vdd, 0.0); // source index 0
        ckt.vsource(vinp, GND, self.vcm, 1.0); // single-ended AC drive
        ckt.vsource(vinn, GND, self.vcm, 0.0);
        // Bias: reference current into an NMOS diode, mirrored to the tail
        // (M5) and the second-stage sink (M7).
        ckt.isource(vdd, bias, self.iref, 0.0);
        let mos = |polarity, d, g, s, w| Mosfet {
            polarity,
            d,
            g,
            s,
            w,
            l,
            mult: 1.0,
            model: match polarity {
                MosPolarity::Nmos => tech.nmos,
                MosPolarity::Pmos => tech.pmos,
            },
        };
        ckt.mosfet(mos(MosPolarity::Nmos, bias, bias, GND, w_ref)); // M8
        ckt.mosfet(mos(MosPolarity::Nmos, tail, bias, GND, w_tail)); // M5
        ckt.mosfet(mos(MosPolarity::Nmos, x, vinn, tail, w_in)); // M1
        ckt.mosfet(mos(MosPolarity::Nmos, d1, vinp, tail, w_in)); // M2
        ckt.mosfet(mos(MosPolarity::Pmos, x, x, vdd, w_load)); // M3 (diode)
        ckt.mosfet(mos(MosPolarity::Pmos, d1, x, vdd, w_load)); // M4
        ckt.mosfet(mos(MosPolarity::Pmos, out, d1, vdd, w_cs)); // M6
        ckt.mosfet(mos(MosPolarity::Nmos, out, bias, GND, w_sink)); // M7
        ckt.capacitor(d1, out, cc);
        ckt.capacitor(out, GND, self.c_load);
        (ckt, out, 0)
    }

    /// The AC sweep grid of every fidelity.
    fn ac_freqs() -> Vec<f64> {
        log_freqs(1e2, 1e10, 10)
    }

    fn dc_opts(&self) -> DcOptions {
        DcOptions {
            initial_v: self.vdd / 2.0,
            solver: self.solver,
            ..DcOptions::default()
        }
    }

    /// Shared body of `simulate`/`simulate_warm`: `state` selects the
    /// warm (session-threaded) or cold measurement path; `Schematic` and
    /// `Pex` are a one-corner plan of the corner engine.
    fn simulate_inner(
        &self,
        idx: &[usize],
        mode: SimMode,
        state: Option<&mut WarmState>,
    ) -> Result<Vec<f64>, SimError> {
        check_indices(&self.params, idx)?;
        let engine = CornerEvaluator::new(
            CornerPlan::for_mode(mode),
            self.dc_opts(),
            OpAmp2::ac_freqs(),
            self.corner_strategy,
        );
        engine.evaluate(
            &self.specs,
            |_slot, pvt| {
                mode_case(mode, &self.tech, &self.pex, pvt, |tech| {
                    self.build(idx, tech)
                })
            },
            |v| Ok(self.corner_specs(v)),
            state,
        )
    }

    /// One corner's specs: gain, unity-gain bandwidth and phase margin
    /// from the swept response, bias current from the supply source.
    fn corner_specs(&self, v: &CornerView<'_>) -> Vec<f64> {
        let ibias = v.op.vsource_current(v.case.vdd_src).abs();
        let resp = v.resp;
        let gain = resp.dc_gain();
        let ugbw = resp
            .ugbw()
            .unwrap_or(self.specs[spec_index::UGBW].fail_value);
        let pm = resp
            .phase_margin_deg()
            .unwrap_or(self.specs[spec_index::PM].fail_value);
        vec![gain, ugbw, pm, ibias]
    }
}

impl SizingProblem for OpAmp2 {
    fn name(&self) -> &'static str {
        "opamp2"
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

    fn mid(problem: &OpAmp2) -> Vec<usize> {
        problem.cardinalities().iter().map(|k| k / 2).collect()
    }

    /// A wrong index count or an out-of-range index is an options error
    /// from both `simulate` and `simulate_warm`, in every mode — never a
    /// panic in the netlist builder.
    #[test]
    fn bad_indices_are_invalid_options() {
        let p = OpAmp2::default();
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
    fn space_size_is_paper_scale() {
        let p = OpAmp2::default();
        // 100^7 = 1e14.
        assert!((p.log10_space_size() - 14.0).abs() < 0.01);
    }

    #[test]
    fn center_design_is_an_amplifier() {
        let p = OpAmp2::default();
        let s = p.simulate(&mid(&p), SimMode::Schematic).unwrap();
        assert!(s[spec_index::GAIN] > 10.0, "gain {}", s[spec_index::GAIN]);
        assert!(s[spec_index::UGBW] > 1e5, "ugbw {}", s[spec_index::UGBW]);
        assert!(
            s[spec_index::PM] > 0.0 && s[spec_index::PM] <= 180.0,
            "pm {}",
            s[spec_index::PM]
        );
        assert!(
            s[spec_index::IBIAS] > 1e-6 && s[spec_index::IBIAS] < 0.1,
            "ibias {}",
            s[spec_index::IBIAS]
        );
    }

    #[test]
    fn bigger_tail_mirror_means_more_current() {
        let p = OpAmp2::default();
        let mut small = mid(&p);
        let mut large = small.clone();
        small[2] = 5; // w_tail small
        large[2] = 90; // w_tail large
        let s = p.simulate(&small, SimMode::Schematic).unwrap();
        let l = p.simulate(&large, SimMode::Schematic).unwrap();
        assert!(l[spec_index::IBIAS] > s[spec_index::IBIAS]);
    }

    #[test]
    fn more_compensation_lowers_ugbw_raises_pm() {
        let p = OpAmp2::default();
        let mut lo_cc = mid(&p);
        let mut hi_cc = lo_cc.clone();
        lo_cc[6] = 9; // 1.0 pF
        hi_cc[6] = 79; // 8.0 pF
        let a = p.simulate(&lo_cc, SimMode::Schematic).unwrap();
        let b = p.simulate(&hi_cc, SimMode::Schematic).unwrap();
        assert!(b[spec_index::UGBW] < a[spec_index::UGBW]);
        assert!(b[spec_index::PM] >= a[spec_index::PM] - 1.0);
    }

    #[test]
    fn deterministic() {
        let p = OpAmp2::default();
        let idx = vec![10, 20, 30, 40, 50, 60, 70];
        assert_eq!(
            p.simulate(&idx, SimMode::Schematic).unwrap(),
            p.simulate(&idx, SimMode::Schematic).unwrap()
        );
    }
}
