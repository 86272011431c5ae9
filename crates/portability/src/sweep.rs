//! The paper's measurement cross-product as one value.
//!
//! Every table, figure and aggregate of the paper is a view of the same
//! 306 units: seven apps × six platforms × each platform's variants
//! (and, for MG-CFD, each scheme). A [`Sweep`] measures them once so
//! that every view renders from the same measurements.

use crate::study::{
    all_platforms, structured_measurements, unstructured_measurements, Measurement, StudyVariant,
};
use sycl_sim::{PlatformId, Scheme};

/// Measured units: the structured ones first, then the MG-CFD ones,
/// each group platform by platform in figure order and, within a
/// platform, in the order of [`structured_measurements`] and
/// [`unstructured_measurements`].
#[derive(Debug, Clone)]
pub struct Sweep {
    units: Vec<Measurement>,
}

impl Sweep {
    /// The full cross-product: all 306 units of the paper.
    pub fn measure() -> Sweep {
        let all = all_platforms();
        Sweep::measure_on(&all, &all)
    }

    /// The structured units on `structured` and the MG-CFD units on
    /// `mgcfd`: a partial sweep for callers that render one view.
    pub fn measure_on(structured: &[PlatformId], mgcfd: &[PlatformId]) -> Sweep {
        let mut units: Vec<Measurement> = structured
            .iter()
            .flat_map(|&p| structured_measurements(p))
            .collect();
        units.extend(mgcfd.iter().flat_map(|&p| unstructured_measurements(p)));
        Sweep { units }
    }

    /// A sweep of units measured elsewhere, kept in the given order.
    pub fn from_units(units: Vec<Measurement>) -> Sweep {
        Sweep { units }
    }

    /// Every unit, in sweep order (the order of `measurements.csv`).
    pub fn units(&self) -> &[Measurement] {
        &self.units
    }

    /// The structured-mesh units.
    pub fn structured(&self) -> impl Iterator<Item = &Measurement> {
        self.units.iter().filter(|m| m.scheme.is_none())
    }

    /// The MG-CFD units.
    pub fn mgcfd(&self) -> impl Iterator<Item = &Measurement> {
        self.units.iter().filter(|m| m.scheme.is_some())
    }

    /// The structured units on one platform: one of Figures 2–7.
    pub fn structured_on(&self, platform: PlatformId) -> impl Iterator<Item = &Measurement> {
        self.structured().filter(move |m| m.platform == platform)
    }

    /// The MG-CFD units on one platform: one panel of Figure 8 or 9.
    pub fn mgcfd_on(&self, platform: PlatformId) -> impl Iterator<Item = &Measurement> {
        self.mgcfd().filter(move |m| m.platform == platform)
    }

    /// The unit for (app, platform, variant[, scheme]), if measured.
    pub fn get(
        &self,
        app: &str,
        platform: PlatformId,
        variant: StudyVariant,
        scheme: Option<Scheme>,
    ) -> Option<&Measurement> {
        self.units.iter().find(|m| {
            m.app == app && m.platform == platform && m.variant == variant && m.scheme == scheme
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_sim::Toolchain;

    #[test]
    fn partial_sweeps_keep_figure_order_and_lookups() {
        let sweep = Sweep::measure_on(&[PlatformId::A100], &[PlatformId::Altra]);
        assert_eq!(sweep.structured().count(), 6 * 5);
        assert_eq!(sweep.mgcfd().count(), 6 * 3);
        assert_eq!(sweep.structured_on(PlatformId::Altra).count(), 0);
        assert_eq!(sweep.units()[0].app, "cloverleaf2d");
        let dpcpp_nd = StudyVariant {
            toolchain: Toolchain::Dpcpp,
            nd_range: true,
        };
        let m = sweep
            .get("rtm", PlatformId::A100, dpcpp_nd, None)
            .expect("measured");
        assert!(m.runtime.is_ok());
        assert!(sweep
            .get("mgcfd", PlatformId::Altra, dpcpp_nd, Some(Scheme::Atomics))
            .is_some_and(|m| m.runtime.is_err()));
        assert!(sweep
            .get("rtm", PlatformId::Altra, dpcpp_nd, None)
            .is_none());
    }
}
