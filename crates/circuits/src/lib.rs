//! # autockt-circuits — the paper's three circuit topologies
//!
//! Parameterised generators for the circuits AutoCkt is evaluated on
//! (Settaluri et al., DATE 2020):
//!
//! - [`tia::Tia`] — simple transimpedance amplifier (Fig. 4, Sec. III-A)
//! - [`opamp2::OpAmp2`] — two-stage op-amp (Fig. 6, Sec. III-B)
//! - [`neggm::NegGmOta`] — two-stage OTA with negative-gm load
//!   (Fig. 9, Sec. III-C/D)
//!
//! Each implements [`problem::SizingProblem`]: a discrete parameter grid, a
//! spec list with target sampling ranges, and a pure
//! `parameters -> measured specs` evaluation at schematic, PEX, or
//! worst-case-PVT PEX fidelity.
//!
//! ## Example
//!
//! ```
//! use autockt_circuits::prelude::*;
//!
//! # fn main() -> Result<(), autockt_sim::SimError> {
//! let tia = Tia::default();
//! let center: Vec<usize> = tia.cardinalities().iter().map(|k| k / 2).collect();
//! let specs = tia.simulate(&center, SimMode::Schematic)?;
//! println!("settling {:.3e} s, cutoff {:.3e} Hz", specs[0], specs[1]);
//! # Ok(())
//! # }
//! ```

pub mod neggm;
pub mod opamp2;
pub mod problem;
pub mod tia;

pub use neggm::NegGmOta;
pub use opamp2::OpAmp2;
pub use problem::{
    CornerCase, CornerEvaluator, CornerPlan, CornerStrategy, CornerView, EvalSession, ParamSpec,
    SharedMemo, SimMode, SizingProblem, SpecDef, SpecKind,
};
pub use tia::Tia;

/// Commonly used items.
pub mod prelude {
    pub use crate::neggm::NegGmOta;
    pub use crate::opamp2::OpAmp2;
    pub use crate::problem::{
        CornerStrategy, EvalSession, ParamSpec, SharedMemo, SimMode, SizingProblem, SpecDef,
        SpecKind,
    };
    pub use crate::tia::Tia;
}
