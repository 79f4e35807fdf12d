//! Quality of a migrated placement, measured against the inflated input,
//! and the output checks every job passes.

use dpm_diffusion::DiffusionConfig;
use dpm_netlist::Netlist;
use dpm_place::{check_legality, hpwl, BinGrid, DensityMap, Die, Placement};

/// Quality of a final placement against its input.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    /// HPWL change, percent of the input's HPWL.
    pub hpwl_delta_pct: f64,
    /// Mean displacement over movable cells, in row heights.
    pub disp_mean_rows: f64,
    /// Largest displacement of a movable cell, in row heights.
    pub disp_max_rows: f64,
}

impl Quality {
    pub fn measure(nl: &Netlist, die: &Die, input: &Placement, out: &Placement) -> Self {
        let h0 = hpwl(nl, input);
        let (mean, max) = displacement_rows(nl, die, input, out);
        Self {
            hpwl_delta_pct: 100.0 * (hpwl(nl, out) - h0) / h0,
            disp_mean_rows: mean,
            disp_max_rows: max,
        }
    }

    /// Mean of each field over `qs`.
    pub fn mean(qs: &[Quality]) -> Quality {
        let n = qs.len().max(1) as f64;
        Quality {
            hpwl_delta_pct: qs.iter().map(|q| q.hpwl_delta_pct).sum::<f64>() / n,
            disp_mean_rows: qs.iter().map(|q| q.disp_mean_rows).sum::<f64>() / n,
            disp_max_rows: qs.iter().map(|q| q.disp_max_rows).sum::<f64>() / n,
        }
    }
}

/// Mean and largest displacement of movable cells, in row heights.
pub fn displacement_rows(nl: &Netlist, die: &Die, a: &Placement, b: &Placement) -> (f64, f64) {
    let (mut sum, mut max, mut n) = (0.0f64, 0.0f64, 0usize);
    for c in nl.movable_cell_ids() {
        let d = (b.get(c) - a.get(c)).length();
        sum += d;
        max = max.max(d);
        n += 1;
    }
    let rh = die.row_height();
    (sum / n.max(1) as f64 / rh, max / rh)
}

/// Density state of a diffused (not yet legalized) placement at the
/// job's bin grid.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Diffused {
    /// Total bin overflow over `d_max`, in bin areas.
    pub overflow: f64,
    pub max_density: f64,
    pub violations: usize,
}

impl Diffused {
    pub fn measure(nl: &Netlist, die: &Die, cfg: &DiffusionConfig, p: &Placement) -> Self {
        let grid = BinGrid::new(die.outline(), cfg.bin_size);
        let map = DensityMap::from_placement(nl, p, grid);
        Self {
            overflow: map.total_overflow(cfg.d_max),
            max_density: map.max_density(),
            violations: check_legality(nl, die, p, 0).violation_count,
        }
    }
}

/// Number of bins of the job's grid.
pub fn bins(die: &Die, cfg: &DiffusionConfig) -> usize {
    BinGrid::new(die.outline(), cfg.bin_size).len()
}

/// FNV-1a over the bit patterns of every position.
pub fn checksum(p: &Placement) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for pt in p.as_slice() {
        for b in
            pt.x.to_bits()
                .to_le_bytes()
                .into_iter()
                .chain(pt.y.to_bits().to_le_bytes())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_gen::{CircuitSpec, InflationSpec};

    #[test]
    fn quality_of_an_unchanged_placement_is_zero() {
        let b = CircuitSpec::small(3).generate();
        let q = Quality::measure(&b.netlist, &b.die, &b.placement, &b.placement);
        assert_eq!(q, Quality::default());
        assert_eq!(checksum(&b.placement), checksum(&b.placement.clone()));
    }

    #[test]
    fn checksum_sees_a_single_bit() {
        let b = CircuitSpec::small(3).generate();
        let mut p = b.placement.clone();
        let x = p.as_slice()[5].x;
        p.as_mut_slice()[5].x = f64::from_bits(x.to_bits() ^ 1);
        assert_ne!(checksum(&p), checksum(&b.placement));
    }

    #[test]
    fn an_inflated_placement_overflows_and_overlaps() {
        let mut inflated = CircuitSpec::small(3).generate();
        inflated.inflate(&InflationSpec::centered(0.10, 0.3, 3));
        let d = Diffused::measure(
            &inflated.netlist,
            &inflated.die,
            &DiffusionConfig::default().with_bin_size(30.0),
            &inflated.placement,
        );
        assert!(d.violations > 0 && d.max_density > 1.0 && d.overflow > 0.0);
    }
}
