//! The quantized, table-driven decide kernel.
//!
//! The monitor's per-window cost is dominated by the per-rank K-S
//! tests: for every window and peak rank the float path allocates the
//! monitored sample, sorts `f64`s, merges it against the full
//! reference, and evaluates the Kolmogorov survival series for a
//! p-value no decision ever reads. This module replaces all of that
//! with precomputed tables and integer lanes while keeping every
//! decision **bit-identical**:
//!
//! * **Threshold tables** ([`eddie_stats::tables::KsThresholdTable`]):
//!   the rejection threshold depends only on `(m, n, α)`, so it is
//!   computed once per region and rank for every reachable monitored
//!   sample size — the hot loop does one array load instead of
//!   `ln`/`sqrt` work, and the p-value series is skipped entirely.
//! * **Quantized references** (`DimGrid`): peak frequencies live on
//!   the STFT bin lattice `k · bin_hz`, so each test dimension gets a
//!   global `u16` grid built from the union of every region's
//!   reference values. Quantization is *checked*: a value joins the
//!   grid only if `offset + q · step` reproduces its exact bits, and
//!   anything off-grid falls back to the float path for that
//!   dimension — exactness is never assumed.
//! * **SoA window lanes** (`KernelCache`): the monitor state keeps a
//!   per-dimension `Vec<u16>` parallel to its STS history, so the K-S
//!   inner loop walks one contiguous `u16` lane per rank instead of
//!   chasing `Vec<Peak>` pointers window by window.
//! * **Binary-search statistic**
//!   ([`eddie_stats::tables::ks_statistic_sorted_search`]): `O(n log m)`
//!   per test over the `u16` lanes, returning the same `f64` bits as
//!   the merge pass.
//!
//! The float implementation stays as the **reference kernel**, the
//! test oracle: [`with_kernel_mode`] forces either kernel for the
//! duration of a closure, and the `kernel_equivalence` and
//! `store_gate` suites diff the quantized kernel's event streams
//! against it byte for byte. Nothing else selects it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use eddie_isa::RegionId;
use eddie_stats::ks::ks_statistic_sorted;
use eddie_stats::tables::{ks_statistic_sorted_search, KsThresholdTable};

use crate::sts::rank_sample;
use crate::{EddieConfig, RegionModel, Sts, TrainedModel};

/// Which decide-path implementation the monitor runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Table-driven kernel over quantized `u16` lanes (the default).
    Quantized,
    /// The original float path: per-test allocation, merge-pass
    /// statistic, full `KsResult`. Kept as the equivalence oracle.
    Reference,
}

/// Set while [`with_kernel_mode`] forces the reference kernel.
static FORCE_REFERENCE: AtomicBool = AtomicBool::new(false);

/// Serializes [`with_kernel_mode`] calls so concurrent tests cannot
/// interleave overrides.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// The kernel the monitor will use for the next decision: `Quantized`
/// unless [`with_kernel_mode`] is forcing the reference kernel.
pub(crate) fn kernel_mode() -> KernelMode {
    if FORCE_REFERENCE.load(Ordering::Relaxed) {
        KernelMode::Reference
    } else {
        KernelMode::Quantized
    }
}

/// Runs `f` with the kernel mode forced to `mode`, restoring the
/// previous override afterwards. Calls are serialized against each
/// other so concurrent tests cannot interleave overrides; the override
/// is process-global and visible to worker-pool threads, which is what
/// lets equivalence tests drive whole parallel pipelines through a
/// chosen kernel.
pub fn with_kernel_mode<T>(mode: KernelMode, f: impl FnOnce() -> T) -> T {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = FORCE_REFERENCE.swap(mode == KernelMode::Reference, Ordering::Relaxed);
    let result = f();
    FORCE_REFERENCE.store(prev, Ordering::Relaxed);
    result
}

/// Lane value for a window that lacks the dimension (`dim_value` is
/// `None`).
pub(crate) const LANE_MISSING: u16 = u16::MAX;
/// Lane value for a present dimension value that does not lie exactly
/// on the dimension's grid — forces the float fallback for any group
/// containing the window.
pub(crate) const LANE_OFF_GRID: u16 = u16::MAX - 1;
/// Largest usable grid index.
const LANE_MAX_INDEX: u16 = u16::MAX - 2;

/// A checked uniform `u16` grid for one test dimension:
/// `value = offset + index · step`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DimGrid {
    offset: f64,
    step: f64,
}

impl DimGrid {
    /// Quantizes `x` onto the grid, or `None` when `x` is not *exactly*
    /// representable (round-tripping `offset + q · step` must reproduce
    /// `x`'s bits — the property that makes `u16` comparisons
    /// interchangeable with `f64` comparisons).
    #[inline]
    fn quantize(&self, x: f64) -> Option<u16> {
        let q = ((x - self.offset) / self.step).round();
        if q >= 0.0 && q <= LANE_MAX_INDEX as f64 && self.offset + q * self.step == x {
            Some(q as u16)
        } else {
            None
        }
    }

    /// Builds the grid covering every value in `sorted_unions` (one
    /// sorted ascending pool of all reference values of the dimension),
    /// or `None` when no exact uniform grid exists.
    fn build(sorted_union: &[f64]) -> Option<DimGrid> {
        let &offset = sorted_union.first()?;
        if !offset.is_finite() {
            return None;
        }
        let mut step = f64::INFINITY;
        for w in sorted_union.windows(2) {
            let gap = w[1] - w[0];
            if gap > 0.0 {
                step = step.min(gap);
            }
        }
        if !step.is_finite() {
            // All values identical: any positive step works.
            step = 1.0;
        }
        let grid = DimGrid { offset, step };
        sorted_union
            .iter()
            .all(|&v| grid.quantize(v).is_some())
            .then_some(grid)
    }
}

/// Largest grid index for which the reference EDF is expanded into a
/// direct-lookup table (above this the `O(log m)` binary search is used
/// instead; 2^14 entries ≈ 128 KiB of `f64` per dimension worst case).
const EDF_CAP: usize = 1 << 14;

/// Per-(region, dimension) precomputed decision inputs.
#[derive(Debug, Clone, PartialEq)]
struct DimKernel {
    /// Quantized sorted reference; meaningful only when `quantized`.
    qrefs: Vec<u16>,
    /// Whether the `u16` fast path applies (the dimension has a grid
    /// and every reference value is on it).
    quantized: bool,
    /// Reference EDF as precomputed fractions: `edf[idx]` is *exactly*
    /// `fl(count(refs <= idx) / m)` — the same `as f64` division the
    /// merge statistic performs, so lookups reproduce its bits. Indices
    /// past the end mean "all refs below": the fraction is `1.0`
    /// (`fl(m/m)` is exactly `1.0` for any finite nonzero `m`). Empty
    /// when the dimension is not quantized or its grid span exceeds
    /// [`EDF_CAP`].
    edf: Vec<f64>,
    /// Rejection thresholds for every monitored size `0..=group_size`.
    table: KsThresholdTable,
    /// `refs.len() * 2 > reference[0].len().max(1)` — whether a mostly
    /// missing rank still counts as active (see `rank_acceptances`).
    sparse_active: bool,
    /// The reference is empty: the rank is skipped entirely.
    empty: bool,
}

/// Per-region kernel: one [`DimKernel`] per test dimension.
#[derive(Debug, Clone, PartialEq)]
struct RegionKernel {
    group_size: usize,
    /// `(group_size / 2).max(2)` — minimum monitored sample size.
    min_len: usize,
    /// `nfrac[l][j]` is *exactly* `fl(j / l)` (`as f64` division) for
    /// every reachable monitored sample size `l <= group_size` — the
    /// monitored-side EDF fractions as table loads.
    nfrac: Vec<Vec<f64>>,
    dims: Vec<DimKernel>,
}

/// Everything precomputed from a [`TrainedModel`] for fast decisions.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ModelKernel {
    num_dims: usize,
    num_peak_dims: usize,
    confidence: f64,
    grids: Vec<Option<DimGrid>>,
    regions: BTreeMap<RegionId, RegionKernel>,
}

impl ModelKernel {
    pub(crate) fn build(model: &TrainedModel) -> ModelKernel {
        let cfg = &model.config;
        let num_dims = cfg.num_dims();

        // One global grid per dimension, from the union of every
        // region's (already sorted) reference values.
        let mut grids = Vec::with_capacity(num_dims);
        for dim in 0..num_dims {
            let mut union: Vec<f64> = model
                .regions
                .values()
                .flat_map(|rm| rm.reference.get(dim).into_iter().flatten().copied())
                .collect();
            union.sort_by(|a, b| a.total_cmp(b));
            grids.push(if union.iter().all(|v| v.is_finite()) {
                DimGrid::build(&union)
            } else {
                None
            });
        }

        let regions = model
            .regions
            .iter()
            .map(|(&id, rm)| {
                let dims = (0..num_dims)
                    .map(|dim| {
                        let refs: &[f64] = rm.reference.get(dim).map_or(&[], Vec::as_slice);
                        let qrefs: Option<Vec<u16>> = grids[dim]
                            .as_ref()
                            .map(|g| refs.iter().map_while(|&v| g.quantize(v)).collect());
                        let qrefs = qrefs.filter(|q| q.len() == refs.len());
                        let first_len = rm.reference.first().map_or(0, Vec::len);
                        let edf = qrefs
                            .as_deref()
                            .map_or(&[][..], |q| q)
                            .last()
                            .map(|&max| max as usize)
                            .filter(|&max| max < EDF_CAP)
                            .map_or_else(Vec::new, |max| {
                                let q = qrefs.as_deref().unwrap_or_default();
                                let m = refs.len() as f64;
                                (0..=max)
                                    .map(|idx| {
                                        let le = q.partition_point(|&r| r as usize <= idx);
                                        le as f64 / m
                                    })
                                    .collect()
                            });
                        DimKernel {
                            quantized: qrefs.is_some(),
                            qrefs: qrefs.unwrap_or_default(),
                            edf,
                            table: KsThresholdTable::new(refs.len(), rm.group_size, cfg.confidence),
                            sparse_active: refs.len() * 2 > first_len.max(1),
                            empty: refs.is_empty(),
                        }
                    })
                    .collect();
                (
                    id,
                    RegionKernel {
                        group_size: rm.group_size,
                        min_len: (rm.group_size / 2).max(2),
                        nfrac: (0..=rm.group_size)
                            .map(|l| (0..=l).map(|j| j as f64 / l as f64).collect())
                            .collect(),
                        dims,
                    },
                )
            })
            .collect();

        ModelKernel {
            num_dims,
            num_peak_dims: cfg.num_peak_dims,
            confidence: cfg.confidence,
            grids,
            regions,
        }
    }

    /// Quantizes one dimension of one STS into its lane value.
    #[inline]
    fn lane_value(&self, sts: &Sts, dim: usize) -> u16 {
        match sts.dim_value(dim, self.num_peak_dims) {
            None => LANE_MISSING,
            Some(v) => match self.grids[dim].as_ref().and_then(|g| g.quantize(v)) {
                Some(q) => q,
                None => LANE_OFF_GRID,
            },
        }
    }
}

/// The per-state runtime side of the kernel: the model tables (built
/// lazily on first decision) plus the SoA lane mirror of the bounded
/// STS history. Never serialized, never compared, reset on clone — a
/// restored or cloned state rebuilds it on the next decision, so
/// snapshots and equality are exactly what they were under the float
/// path.
#[derive(Debug, Default)]
pub(crate) struct KernelCache {
    kernel: Option<ModelKernel>,
    /// `lanes[dim][row]`, rows parallel to `MonitorState::history`.
    lanes: Vec<Vec<u16>>,
    /// Scratch for the sorted monitored sample (avoids per-test
    /// allocation).
    scratch: Vec<u16>,
}

impl Clone for KernelCache {
    fn clone(&self) -> KernelCache {
        KernelCache::default()
    }
}

impl PartialEq for KernelCache {
    fn eq(&self, _other: &KernelCache) -> bool {
        true
    }
}

impl KernelCache {
    /// Brings the cache up to date with `history`: builds the model
    /// tables once, then appends the newest window's lane row (the
    /// common case) or rebuilds all rows after a restore/clone.
    pub(crate) fn sync(&mut self, model: &TrainedModel, history: &[Sts]) {
        let kernel = self.kernel.get_or_insert_with(|| ModelKernel::build(model));
        let dims = kernel.num_dims;
        if self.lanes.len() != dims {
            self.lanes = vec![Vec::new(); dims];
        }
        let rows = self.lanes.first().map_or(0, Vec::len);
        if rows + 1 == history.len() {
            let sts = history.last().expect("non-empty history");
            for (dim, lane) in self.lanes.iter_mut().enumerate() {
                lane.push(kernel.lane_value(sts, dim));
            }
        } else if rows != history.len() {
            for (dim, lane) in self.lanes.iter_mut().enumerate() {
                lane.clear();
                lane.reserve(history.len());
                lane.extend(history.iter().map(|sts| kernel.lane_value(sts, dim)));
            }
        }
    }

    /// Mirrors `MonitorState::prune`'s front drain.
    pub(crate) fn drain_front(&mut self, drop: usize) {
        for lane in &mut self.lanes {
            if lane.len() >= drop {
                lane.drain(..drop);
            } else {
                lane.clear();
            }
        }
    }
}

/// The K-S statistic over a sorted monitored `u16` lane with *both*
/// EDFs as table loads: `edf[idx]` is the reference fraction
/// `fl(count(refs <= idx) / m)` and `nfrac[j]` the monitored fraction
/// `fl(j / n)`. Evaluates exactly the candidate set of
/// [`ks_statistic_sorted_search`] — each side of every run of equal
/// monitored values — with each candidate a subtraction of two loads
/// whose bits equal the divisions the search path would perform, so the
/// running `f64` max is bit-identical.
#[inline]
fn edf_statistic(edf: &[f64], nfrac: &[f64], scratch: &[u16]) -> f64 {
    let mut d: f64 = 0.0;
    let mut j = 0usize;
    while j < scratch.len() {
        let v = scratch[j];
        let mut run_end = j + 1;
        while run_end < scratch.len() && scratch[run_end] == v {
            run_end += 1;
        }
        let vi = v as usize;
        // refs < v and refs <= v as fractions; past-the-end means every
        // reference is below, i.e. fraction fl(m/m) = 1.0 exactly.
        let lt = if vi == 0 {
            0.0
        } else {
            edf.get(vi - 1).copied().unwrap_or(1.0)
        };
        let le = edf.get(vi).copied().unwrap_or(1.0);
        d = d.max((lt - nfrac[j]).abs());
        d = d.max((le - nfrac[run_end]).abs());
        j = run_end;
    }
    d
}

/// The verdict expression of `finish_test`, inverted: `Accept` unless
/// `d > threshold` — NaN statistics accept, exactly as there, which is
/// why this is not written `d <= threshold`.
#[inline]
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn accepts(d: f64, threshold: f64) -> bool {
    !(d > threshold)
}

/// Quantized-kernel counterpart of `monitor::rank_acceptances`: counts
/// `(accepted, active)` per-rank outcomes for the trailing group of
/// `rm.group_size` windows ending at `end`. Decisions are bit-identical
/// to the float path; any window off the grid demotes just that
/// dimension to the exact float computation.
pub(crate) fn rank_acceptances_quantized(
    cache: &mut KernelCache,
    rm: &RegionModel,
    history: &[Sts],
    end: usize,
    cfg: &EddieConfig,
) -> (usize, usize) {
    let KernelCache {
        kernel,
        lanes,
        scratch,
    } = cache;
    let kernel = kernel.as_ref().expect("sync() builds the kernel first");
    let rk = match kernel.regions.get(&rm.region) {
        Some(rk) => rk,
        // A region added or renamed after the cache was built (sweeps
        // mutate cloned models *before* monitoring, so this is purely
        // defensive): fall back to the float path wholesale.
        None => {
            return crate::monitor::rank_acceptances(
                &rm.reference,
                history,
                end,
                rm.group_size,
                cfg.confidence,
                cfg.num_peak_dims,
            )
        }
    };
    let n = rk.group_size;
    let start = end.saturating_sub(n.saturating_sub(1));

    let mut active = 0usize;
    let mut accepted = 0usize;
    for (dim, dk) in rk.dims.iter().enumerate() {
        if dk.empty {
            continue;
        }
        let mut usable = dk.quantized;
        let mut len = 0usize;
        if usable {
            scratch.clear();
            for &q in &lanes[dim][start..=end] {
                // Sentinels are the two top values, so one compare
                // covers the common on-grid case.
                if q >= LANE_OFF_GRID {
                    if q == LANE_MISSING {
                        continue;
                    }
                    usable = false;
                    break;
                }
                scratch.push(q);
            }
            len = scratch.len();
        }
        if !usable {
            // Exact float fallback: same sample, same statistic, same
            // threshold expression as the reference kernel.
            let mut mon = rank_sample(history, end, n, dim, kernel.num_peak_dims);
            len = mon.len();
            if len >= rk.min_len {
                active += 1;
                mon.sort_by(|a, b| a.total_cmp(b));
                let refs: &[f64] = rm.reference.get(dim).map_or(&[], Vec::as_slice);
                let d = ks_statistic_sorted(refs, &mon);
                if accepts(d, dk.table.threshold(len)) {
                    accepted += 1;
                }
                continue;
            }
        } else if len >= rk.min_len {
            active += 1;
            scratch.sort_unstable();
            let d = if dk.edf.is_empty() {
                ks_statistic_sorted_search(&dk.qrefs, scratch)
            } else {
                edf_statistic(&dk.edf, &rk.nfrac[len], scratch)
            };
            if accepts(d, dk.table.threshold(len)) {
                accepted += 1;
            }
            continue;
        }
        // Mostly missing rank (len < min_len).
        if dk.sparse_active {
            active += 1;
        }
    }
    (accepted, active)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_defaults_to_quantized() {
        // Hold the override lock so no concurrent test has one active.
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(kernel_mode(), KernelMode::Quantized);
    }

    #[test]
    fn with_kernel_mode_overrides_and_restores() {
        let outer = kernel_mode();
        let inner = with_kernel_mode(KernelMode::Reference, kernel_mode);
        assert_eq!(inner, KernelMode::Reference);
        let inner = with_kernel_mode(KernelMode::Quantized, kernel_mode);
        assert_eq!(inner, KernelMode::Quantized);
        assert_eq!(kernel_mode(), outer);
    }

    #[test]
    fn grid_quantizes_lattice_values_exactly() {
        // The STFT bin lattice: k * bin_hz.
        let bin_hz = 1_800_000_000.0 / 512.0;
        let union: Vec<f64> = (2..200).map(|k| k as f64 * bin_hz).collect();
        let grid = DimGrid::build(&union).expect("lattice must grid");
        for (i, &v) in union.iter().enumerate() {
            let q = grid.quantize(v).expect("on-grid");
            assert_eq!(q as usize, i, "contiguous lattice indices");
        }
        // Off-grid values must be refused, not rounded.
        assert_eq!(grid.quantize(2.5 * bin_hz), None);
        assert_eq!(grid.quantize(f64::NAN), None);
    }

    #[test]
    fn grid_rejects_irregular_values() {
        // An irrational-ratio pair has no exact uniform grid.
        let union = vec![1.0, 1.0 + std::f64::consts::SQRT_2 * 1e-3, 2.0];
        assert_eq!(DimGrid::build(&union), None);
    }

    #[test]
    fn constant_reference_gets_a_grid() {
        let union = vec![42.5; 30];
        let grid = DimGrid::build(&union).expect("constant set grids");
        assert_eq!(grid.quantize(42.5), Some(0));
        assert_eq!(grid.quantize(43.5), Some(1));
    }

    #[test]
    fn sts_dim_values_round_trip_through_u16_lanes() {
        // Real STS values — peak frequencies on the STFT bin lattice,
        // the pipeline's actual value domain — must survive the u16
        // lanes as an order isomorphism with bit-exact round trips:
        // sorting and rank-counting the u16s is then interchangeable
        // with sorting and rank-counting the f64s.
        use eddie_dsp::Peak;
        let bin_hz = 1_800_000_000.0 / 512.0;
        let stss: Vec<Sts> = (0..64)
            .map(|i| {
                let peak = |bin: usize, power: f64, fraction: f64| Peak {
                    bin,
                    freq_hz: bin as f64 * bin_hz,
                    power,
                    fraction,
                };
                Sts {
                    index: i,
                    start_sample: i,
                    peaks: vec![peak(2 + i % 7, 1.0, 0.4), peak(30 + i % 11, 0.5, 0.2)],
                    centroid_hz: 0.0,
                    spread_hz: 0.0,
                }
            })
            .collect();
        for dim in 0..2usize {
            let value = |s: &Sts| s.dim_value(dim, 2).expect("dim present");
            let mut union: Vec<f64> = stss.iter().map(value).collect();
            union.sort_by(|a, b| a.total_cmp(b));
            let grid = DimGrid::build(&union).expect("bin lattice grids");
            let quantized: Vec<u16> = stss
                .iter()
                .map(|s| grid.quantize(value(s)).expect("on grid"))
                .collect();
            for (s, &q) in stss.iter().zip(&quantized) {
                assert_eq!(
                    (grid.offset + q as f64 * grid.step).to_bits(),
                    value(s).to_bits(),
                    "dim {dim}: dequantized bits must equal the original"
                );
            }
            for (i, si) in stss.iter().enumerate() {
                for (j, sj) in stss.iter().enumerate() {
                    let (vi, vj) = (value(si), value(sj));
                    assert_eq!(vi < vj, quantized[i] < quantized[j], "dim {dim} order");
                    assert_eq!(vi == vj, quantized[i] == quantized[j], "dim {dim} ties");
                }
            }
        }
    }

    #[test]
    fn edf_statistic_matches_search_bitwise() {
        // Tie-heavy deterministic fixtures over a small index range —
        // the regime the monitor runs.
        for seed in 0..40u64 {
            let m = 3 + (seed as usize * 13) % 300;
            let n = 2 + (seed as usize * 5) % 24;
            let val = |k: u64| {
                (seed
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(k * 9_349)
                    % 61) as u16
            };
            let mut qrefs: Vec<u16> = (0..m as u64).map(val).collect();
            qrefs.sort_unstable();
            let mut mon: Vec<u16> = (0..n as u64).map(|k| val(k * 7 + 3)).collect();
            mon.sort_unstable();
            let edf: Vec<f64> = (0..=*qrefs.last().unwrap() as usize)
                .map(|idx| qrefs.partition_point(|&r| (r as usize) <= idx) as f64 / m as f64)
                .collect();
            let nfrac: Vec<f64> = (0..=n).map(|j| j as f64 / n as f64).collect();
            assert_eq!(
                edf_statistic(&edf, &nfrac, &mon).to_bits(),
                ks_statistic_sorted_search(&qrefs, &mon).to_bits(),
                "seed={seed} m={m} n={n}"
            );
        }
    }

    #[test]
    fn quantization_preserves_order_and_round_trips() {
        let union: Vec<f64> = (0..100).map(|k| 100.0 + k as f64 * 0.5).collect();
        let grid = DimGrid::build(&union).expect("half-hertz lattice");
        let mut prev = None;
        for &v in &union {
            let q = grid.quantize(v).unwrap();
            // Strictly increasing u16 for strictly increasing f64.
            if let Some(p) = prev {
                assert!(q > p);
            }
            prev = Some(q);
            // Exact round trip.
            assert_eq!((grid.offset + q as f64 * grid.step).to_bits(), v.to_bits());
        }
    }
}
