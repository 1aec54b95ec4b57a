//! Output checks on a saved ensemble: byte identity with a reference run,
//! and properties every trained mixture must have.

use lipiz_core::persist;
use lipiz_tensor::Rng64;
use std::path::Path;

/// Samples drawn from the ensemble to check the generator's output range.
const CHECK_SAMPLES: usize = 64;
/// Tolerance on the mixture weights' sum.
const WEIGHT_SUM_TOL: f64 = 1e-6;

/// Verify the ensemble saved at `path`: byte-identical to `reference`
/// when one is given, every genome finite, mixture weights ≥ 0 summing to
/// 1 within 1e-6, and samples inside the generator's [−1, 1] range.
pub fn verify_ensemble(path: &Path, reference: Option<&[u8]>) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    if let Some(want) = reference {
        if bytes != want {
            return Err(format!(
                "{} ({} bytes) differs from the reference ensemble ({} bytes)",
                path.display(),
                bytes.len(),
                want.len()
            ));
        }
    }
    let model = persist::load_ensemble(path)
        .map_err(|e| format!("loading {}: {e:?}", path.display()))?;
    if let Some(i) = model.genomes.iter().position(|g| g.iter().any(|v| !v.is_finite())) {
        return Err(format!("genome {i} holds a non-finite parameter"));
    }
    let weights = model.weights.weights();
    if weights.iter().any(|&w| w.is_nan() || w < 0.0) {
        return Err(format!("negative or NaN mixture weight in {weights:?}"));
    }
    let sum: f64 = weights.iter().map(|&w| w as f64).sum();
    if (sum - 1.0).abs() > WEIGHT_SUM_TOL {
        return Err(format!("mixture weights sum to {sum}, not 1"));
    }
    let samples = model.sample(CHECK_SAMPLES, &mut Rng64::seed_from(7));
    if samples.as_slice().iter().any(|v| !(-1.0..=1.0).contains(v)) {
        return Err("an ensemble sample lies outside [-1, 1]".into());
    }
    Ok(())
}
