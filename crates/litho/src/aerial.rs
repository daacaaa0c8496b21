//! 1-D aerial-image simulation with a Gaussian point-spread kernel and a
//! constant-threshold resist model.
//!
//! Sawicki (claim C15): *"computational lithography has been one of the
//! primary enablers of feature scaling in the absence of EUV."* The optical
//! system here is a 193 nm-immersion-class projector: the kernel width is set
//! by λ/NA, so gratings below the ~80 nm single-exposure pitch lose contrast
//! and cannot print — exactly the regime where OPC (and eventually
//! multi-patterning) must step in.

/// The imaging system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpticalModel {
    /// Wavelength in nm (193 for ArF).
    pub lambda_nm: f64,
    /// Numerical aperture (1.35 for immersion).
    pub na: f64,
    /// Resist threshold in normalized intensity [0, 1].
    pub threshold: f64,
    /// Simulation sample step in nm.
    pub step_nm: f64,
}

impl Default for OpticalModel {
    fn default() -> Self {
        OpticalModel { lambda_nm: 193.0, na: 1.35, threshold: 0.5, step_nm: 1.0 }
    }
}

impl OpticalModel {
    /// Gaussian kernel sigma: σ ≈ 0.14 · λ / NA (calibrated so grating
    /// contrast collapses just below the ~80 nm single-exposure pitch).
    pub fn sigma_nm(&self) -> f64 {
        0.14 * self.lambda_nm / self.na
    }

    /// Simulates printing of a 1-D mask.
    ///
    /// `mask` gives `(start, end)` transparent intervals in nm over
    /// `[0, extent_nm]`. Returns the printed intervals after thresholding.
    pub fn print(&self, mask: &[(f64, f64)], extent_nm: f64) -> Vec<(f64, f64)> {
        self.threshold_image(&self.image(mask, extent_nm))
    }

    /// The sampled aerial image for a mask: one kernel dot product over the
    /// rasterized mask per output sample, in sample order.
    pub fn image(&self, mask: &[(f64, f64)], extent_nm: f64) -> Vec<f64> {
        let n = (extent_nm / self.step_nm).ceil() as usize + 1;
        let sigma = self.sigma_nm();
        let half = (4.0 * sigma / self.step_nm).ceil() as i64;
        // Precompute the kernel CDF-difference per sample via erf-free
        // discrete Gaussian (normalized).
        let mut kernel = Vec::with_capacity((2 * half + 1) as usize);
        let mut ksum = 0.0;
        for k in -half..=half {
            let x = k as f64 * self.step_nm / sigma;
            let v = (-0.5 * x * x).exp();
            kernel.push(v);
            ksum += v;
        }
        for v in &mut kernel {
            *v /= ksum;
        }
        // Rasterize the mask.
        let mut m = vec![0.0f64; n];
        for &(a, b) in mask {
            let i0 = ((a / self.step_nm).round().max(0.0) as usize).min(n - 1);
            let i1 = ((b / self.step_nm).round().max(0.0) as usize).min(n - 1);
            for s in &mut m[i0..=i1] {
                *s = 1.0;
            }
        }
        (0..n)
            .map(|i| {
                let mut acc = 0.0;
                for (ki, k) in (-half..=half).enumerate() {
                    let j = i as i64 + k;
                    if j >= 0 && (j as usize) < n {
                        acc += m[j as usize] * kernel[ki];
                    }
                }
                acc
            })
            .collect()
    }

    /// Thresholds a sampled image into printed intervals.
    pub fn threshold_image(&self, image: &[f64]) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        let mut start: Option<f64> = None;
        for (i, &v) in image.iter().enumerate() {
            let x = i as f64 * self.step_nm;
            if v >= self.threshold && start.is_none() {
                start = Some(x);
            }
            if v < self.threshold {
                if let Some(s) = start.take() {
                    out.push((s, x - self.step_nm));
                }
            }
        }
        if let Some(s) = start {
            out.push((s, (image.len() - 1) as f64 * self.step_nm));
        }
        out
    }

    /// Image contrast for a periodic grating: `(Imax - Imin)/(Imax + Imin)`
    /// computed from a long line array at the given pitch.
    pub fn grating_contrast(&self, pitch_nm: f64) -> f64 {
        let lines = 12;
        let extent = pitch_nm * lines as f64;
        let mask: Vec<(f64, f64)> = (0..lines)
            .map(|i| (i as f64 * pitch_nm, i as f64 * pitch_nm + pitch_nm / 2.0))
            .collect();
        let img = self.image(&mask, extent);
        // Ignore the boundary third on each side.
        let lo = img.len() / 3;
        let hi = 2 * img.len() / 3;
        let (mut imax, mut imin) = (0.0f64, f64::INFINITY);
        for &v in &img[lo..hi] {
            imax = imax.max(v);
            imin = imin.min(v);
        }
        if imax + imin == 0.0 {
            0.0
        } else {
            (imax - imin) / (imax + imin)
        }
    }
}

/// Edge-placement errors of printed intervals against target intervals, in
/// nm, two per target fragment in fragment order. Each target edge is
/// matched to the nearest printed edge; unmatched targets get an error equal
/// to half the target width (missing feature).
pub fn edge_placement_errors(target: &[(f64, f64)], printed: &[(f64, f64)]) -> Vec<f64> {
    target
        .iter()
        .flat_map(|&(t0, t1)| {
            let miss = (t1 - t0) / 2.0;
            let e0 = printed
                .iter()
                .map(|&(p0, _)| (p0 - t0).abs())
                .fold(f64::INFINITY, f64::min);
            let e1 = printed
                .iter()
                .map(|&(_, p1)| (p1 - t1).abs())
                .fold(f64::INFINITY, f64::min);
            [
                if e0.is_finite() { e0.min(miss) } else { miss },
                if e1.is_finite() { e1.min(miss) } else { miss },
            ]
        })
        .collect()
}

/// FNV-1a over the little-endian bits of `values`: the digest the pinned
/// tests compare.
#[cfg(test)]
pub(crate) fn fnv_bits(values: impl IntoIterator<Item = f64>) -> u64 {
    values
        .into_iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Root-mean-square of a set of EPEs.
pub fn rms(errors: &[f64]) -> f64 {
    if errors.is_empty() {
        return 0.0;
    }
    (errors.iter().map(|e| e * e).sum::<f64>() / errors.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolated_big_feature_prints_accurately() {
        let m = OpticalModel::default();
        let target = vec![(200.0, 600.0)];
        let printed = m.print(&target, 800.0);
        assert_eq!(printed.len(), 1);
        let epe = edge_placement_errors(&target, &printed);
        assert!(rms(&epe) < 5.0, "large isolated feature should print true, rms={}", rms(&epe));
    }

    #[test]
    fn contrast_collapses_below_single_exposure_pitch() {
        let m = OpticalModel::default();
        let c120 = m.grating_contrast(120.0);
        let c80 = m.grating_contrast(80.0);
        let c50 = m.grating_contrast(50.0);
        assert!(c120 > c80 && c80 > c50, "contrast must fall with pitch");
        assert!(c120 > 0.5, "120nm pitch is comfortably printable, got {c120}");
        assert!(c50 < 0.15, "50nm pitch has no single-exposure contrast, got {c50}");
    }

    #[test]
    fn sub_resolution_grating_does_not_resolve() {
        let m = OpticalModel::default();
        let pitch = 40.0;
        let mask: Vec<(f64, f64)> = (0..10).map(|i| {
            let x = 200.0 + i as f64 * pitch;
            (x, x + pitch / 2.0)
        }).collect();
        let printed = m.print(&mask, 1000.0);
        assert!(
            printed.len() < 10,
            "40nm-pitch lines must merge/vanish in a single exposure, got {}",
            printed.len()
        );
    }

    #[test]
    fn epe_of_perfect_print_is_zero() {
        let target = vec![(100.0, 200.0), (300.0, 400.0)];
        let epe = edge_placement_errors(&target, &target);
        assert!(epe.iter().all(|&e| e == 0.0));
        assert_eq!(rms(&epe), 0.0);
    }

    #[test]
    fn missing_feature_charged_half_width() {
        let target = vec![(100.0, 160.0)];
        let epe = edge_placement_errors(&target, &[]);
        assert_eq!(epe, vec![30.0, 30.0]);
    }

    /// The image and EPE field of a 20-line mask, recorded while the sample
    /// axis and the fragments were still chunked over worker threads (each
    /// sample and each fragment was an independent query, merged in order).
    #[test]
    fn image_is_pinned() {
        let m = OpticalModel::default();
        let mask: Vec<(f64, f64)> = (0..20)
            .map(|i| {
                let x = 100.0 + i as f64 * 130.0;
                (x, x + 65.0)
            })
            .collect();
        let image = m.image(&mask, 3000.0);
        assert_eq!(image.len(), 3001);
        assert_eq!(fnv_bits(image.iter().copied()), 0xef63_7dc2_f0a5_103d);
        let epe = edge_placement_errors(&mask, &m.print(&mask, 3000.0));
        assert_eq!(epe.len(), 40);
        assert_eq!(fnv_bits(epe.iter().copied()), 0xf05e_74aa_1eda_9c25);
    }

    #[test]
    fn threshold_image_finds_intervals() {
        let m = OpticalModel::default();
        let img = vec![0.0, 0.2, 0.6, 0.9, 0.7, 0.3, 0.1, 0.6, 0.8, 0.2];
        let iv = m.threshold_image(&img);
        assert_eq!(iv.len(), 2);
        assert_eq!(iv[0], (2.0, 4.0));
        assert_eq!(iv[1], (7.0, 8.0));
    }
}
