//! Golden snapshot harness: blessed copies of every deterministic paper
//! artifact live in `results/golden/*.json`; `cargo test` regenerates each
//! record and compares it against its blessed copy within per-metric
//! tolerance bands anchored to the paper's quoted numbers.
//!
//! Workflow:
//!
//! * a mismatch fails the test with a unified human-readable diff and drops
//!   the regenerated record plus the rendered diff under
//!   `target/golden-diff/` (override with `DANTE_GOLDEN_DIFF_DIR`) so CI can
//!   upload them as artifacts;
//! * an **intended** change is re-blessed with
//!   `UPDATE_GOLDEN=1 cargo test --test golden_snapshots`, which rewrites
//!   the stored JSON instead of comparing.
//!
//! Free-form notes are compared *softly*: drift is reported in the diff but
//! never fails a check on its own, because notes embed display-rounded
//! derived values whose numeric sources are already compared exactly.

use dante_bench::record::FigureRecord;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A per-metric acceptance band: `actual` matches `golden` when
/// `|actual - golden| <= abs + rel * |golden|`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Relative component, scaled by the golden magnitude.
    pub rel: f64,
    /// Absolute floor, for values near zero.
    pub abs: f64,
}

impl Tolerance {
    /// Bit-exact comparison — for records built from configuration
    /// constants where any drift means the model changed.
    #[must_use]
    pub const fn exact() -> Self {
        Self { rel: 0.0, abs: 0.0 }
    }

    /// A relative band with an absolute floor.
    #[must_use]
    pub const fn band(rel: f64, abs: f64) -> Self {
        Self { rel, abs }
    }

    /// Whether `actual` is acceptable against `golden`.
    #[must_use]
    pub fn accepts(&self, golden: f64, actual: f64) -> bool {
        (actual - golden).abs() <= self.allowed(golden)
    }

    /// The maximum allowed absolute deviation from `golden`.
    #[must_use]
    pub fn allowed(&self, golden: f64) -> f64 {
        self.abs + self.rel * golden.abs()
    }
}

/// The acceptance band for one golden record, keyed by record id.
///
/// The bands are deliberately tight: regeneration is deterministic and the
/// JSON encoding round-trips `f64` exactly, so the slack only needs to
/// absorb *intended-neutral* refactors (e.g. floating-point reassociation),
/// not model changes. Records built purely from configuration tables
/// (`table1`, `table2`) and the deterministic transient waveform (`fig04`)
/// are compared bit-exactly.
#[must_use]
pub fn tolerance_for(record_id: &str) -> Tolerance {
    match record_id {
        "table1" | "table2" | "fig04" => Tolerance::exact(),
        // BER spans ~10 decades down to ~1e-10; a relative band with a tiny
        // absolute floor keeps the deep tail meaningfully checked.
        "fig07" => Tolerance::band(1e-3, 1e-15),
        // Counter-based Monte-Carlo plus a cached trained network: exactly
        // reproducible per platform, but the solve crosses enough libm calls
        // (exp/erf in the fault model, training nonlinearities) that a wider
        // band absorbs cross-platform last-ulp drift without ever masking a
        // flipped V_min (a grid step moves energies by far more than 0.5%).
        // The Fig. 13-15 analyses (GOLDEN_SCALE) share that story.
        "iso_accuracy" | "fig13" | "fig14" | "fig15" => Tolerance::band(5e-3, 1e-9),
        // Same reproducibility story as iso_accuracy, plus a two-epoch
        // fault-injected training loop whose float accumulation crosses far
        // more libm territory — a 1% band still cannot mask a flipped V_min
        // (one grid step shifts energies by several percent).
        "retrain" => Tolerance::band(1e-2, 1e-9),
        // Pure analytic functions of the sram22-derived constants; the tight
        // band only absorbs floating-point reassociation, so any geometry or
        // constant change shows up as a hard mismatch.
        "macro_model" => Tolerance::band(1e-9, 1e-15),
        _ => Tolerance::band(1e-6, 1e-12),
    }
}

/// Outcome of a successful golden check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GoldenOutcome {
    /// The regenerated record matched the blessed copy within tolerance.
    Match,
    /// `UPDATE_GOLDEN=1` was set; the blessed copy was (re)written.
    Blessed,
}

/// A failed golden comparison: which record, where its blessed copy lives,
/// and a rendered line-by-line account of every divergence.
#[derive(Debug, Clone)]
pub struct GoldenDiff {
    /// Record id.
    pub id: String,
    /// Path of the blessed JSON file.
    pub golden_path: PathBuf,
    /// Hard mismatches — each one fails the check.
    pub hard: Vec<String>,
    /// Soft drift (notes) — informational only.
    pub soft: Vec<String>,
    /// Where the regenerated record and rendered diff were written
    /// (`<id>.actual.json`, `<id>.diff.txt`), when writing succeeded.
    pub artifacts: Option<PathBuf>,
}

impl GoldenDiff {
    /// Renders the diff in a unified, human-readable form.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== golden mismatch: {} ==", self.id);
        let _ = writeln!(out, "blessed copy: {}", self.golden_path.display());
        for line in &self.hard {
            let _ = writeln!(out, "{line}");
        }
        for line in &self.soft {
            let _ = writeln!(out, "~ (informational) {line}");
        }
        if let Some(dir) = &self.artifacts {
            let _ = writeln!(out, "artifacts: {}", dir.display());
        }
        let _ = writeln!(
            out,
            "hint: if this change is intended, re-bless with \
             `UPDATE_GOLDEN=1 cargo test --test golden_snapshots`"
        );
        out
    }
}

/// The store of blessed records.
#[derive(Debug, Clone)]
pub struct GoldenStore {
    dir: PathBuf,
    diff_dir: PathBuf,
}

impl GoldenStore {
    /// A store rooted at `dir`, writing mismatch artifacts to `diff_dir`.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>, diff_dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            diff_dir: diff_dir.into(),
        }
    }

    /// The conventional location: `results/golden/` under the invoking
    /// package root (cargo sets `CARGO_MANIFEST_DIR` at test runtime), with
    /// diffs under `target/golden-diff/`. `DANTE_GOLDEN_DIR` and
    /// `DANTE_GOLDEN_DIFF_DIR` override either half.
    #[must_use]
    pub fn default_location() -> Self {
        let root = std::env::var_os("CARGO_MANIFEST_DIR")
            .map_or_else(|| PathBuf::from("."), PathBuf::from);
        let dir = std::env::var_os("DANTE_GOLDEN_DIR")
            .map_or_else(|| root.join("results").join("golden"), PathBuf::from);
        let diff_dir = std::env::var_os("DANTE_GOLDEN_DIFF_DIR")
            .map_or_else(|| root.join("target").join("golden-diff"), PathBuf::from);
        Self { dir, diff_dir }
    }

    /// Directory holding the blessed `*.json` files.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether the environment requests re-blessing (`UPDATE_GOLDEN=1`).
    #[must_use]
    pub fn bless_requested() -> bool {
        std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1")
    }

    /// Checks `actual` against its blessed copy, honouring `UPDATE_GOLDEN`.
    ///
    /// # Errors
    ///
    /// Returns the rendered [`GoldenDiff`] when the blessed copy is
    /// missing, unparsable, or differs beyond the record's tolerance band.
    pub fn check(&self, actual: &FigureRecord) -> Result<GoldenOutcome, GoldenDiff> {
        self.check_with_mode(actual, Self::bless_requested())
    }

    /// [`Self::check`] with an explicit bless flag — the testable core.
    ///
    /// # Errors
    ///
    /// See [`Self::check`].
    pub fn check_with_mode(
        &self,
        actual: &FigureRecord,
        bless: bool,
    ) -> Result<GoldenOutcome, GoldenDiff> {
        let path = self.dir.join(format!("{}.json", actual.id));
        if bless {
            std::fs::create_dir_all(&self.dir)
                .unwrap_or_else(|e| panic!("cannot create golden dir {}: {e}", self.dir.display()));
            let mut json = actual.to_json_pretty();
            json.push('\n');
            std::fs::write(&path, json)
                .unwrap_or_else(|e| panic!("cannot bless {}: {e}", path.display()));
            return Ok(GoldenOutcome::Blessed);
        }
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                return Err(self.fail(
                    actual,
                    &path,
                    vec![format!("- blessed copy unreadable: {e}")],
                    Vec::new(),
                ));
            }
        };
        let golden = match FigureRecord::from_json(&text) {
            Ok(g) => g,
            Err(e) => {
                return Err(self.fail(
                    actual,
                    &path,
                    vec![format!("- blessed copy unparsable: {e}")],
                    Vec::new(),
                ));
            }
        };
        let (hard, soft) = diff_records(&golden, actual, tolerance_for(&actual.id));
        if hard.is_empty() {
            Ok(GoldenOutcome::Match)
        } else {
            Err(self.fail(actual, &path, hard, soft))
        }
    }

    /// Blessed files in the store whose ids are not in `expected` — stale
    /// snapshots that no generator produces any more.
    #[must_use]
    pub fn orphans(&self, expected_ids: &[&str]) -> Vec<String> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut orphans: Vec<String> = entries
            .filter_map(Result::ok)
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                let id = name.strip_suffix(".json")?.to_owned();
                (!expected_ids.contains(&id.as_str())).then_some(id)
            })
            .collect();
        orphans.sort();
        orphans
    }

    fn fail(
        &self,
        actual: &FigureRecord,
        golden_path: &Path,
        hard: Vec<String>,
        soft: Vec<String>,
    ) -> GoldenDiff {
        let mut diff = GoldenDiff {
            id: actual.id.clone(),
            golden_path: golden_path.to_path_buf(),
            hard,
            soft,
            artifacts: None,
        };
        if std::fs::create_dir_all(&self.diff_dir).is_ok() {
            let actual_path = self.diff_dir.join(format!("{}.actual.json", actual.id));
            let diff_path = self.diff_dir.join(format!("{}.diff.txt", actual.id));
            let wrote_actual = std::fs::write(&actual_path, actual.to_json_pretty()).is_ok();
            let wrote_diff = std::fs::write(&diff_path, diff.render()).is_ok();
            if wrote_actual && wrote_diff {
                diff.artifacts = Some(self.diff_dir.clone());
            }
        }
        diff
    }
}

/// Field-by-field comparison of two records; returns `(hard, soft)`
/// mismatch lines in unified `-golden` / `+actual` style.
fn diff_records(
    golden: &FigureRecord,
    actual: &FigureRecord,
    tol: Tolerance,
) -> (Vec<String>, Vec<String>) {
    let mut hard = Vec::new();
    let mut soft = Vec::new();

    let mut meta = |field: &str, g: &str, a: &str| {
        if g != a {
            hard.push(format!("@ {field}:\n- {g}\n+ {a}"));
        }
    };
    meta("title", &golden.title, &actual.title);
    meta("x_label", &golden.x_label, &actual.x_label);
    meta("y_label", &golden.y_label, &actual.y_label);

    let golden_names: Vec<&str> = golden.series.iter().map(|s| s.name.as_str()).collect();
    let actual_names: Vec<&str> = actual.series.iter().map(|s| s.name.as_str()).collect();
    if golden_names != actual_names {
        hard.push(format!(
            "@ series set:\n- {golden_names:?}\n+ {actual_names:?}"
        ));
    } else {
        for (gs, as_) in golden.series.iter().zip(&actual.series) {
            if gs.points.len() != as_.points.len() {
                hard.push(format!(
                    "@ series \"{}\" point count:\n- {}\n+ {}",
                    gs.name,
                    gs.points.len(),
                    as_.points.len()
                ));
                continue;
            }
            for (i, (&(gx, gy), &(ax, ay))) in gs.points.iter().zip(&as_.points).enumerate() {
                let x_ok = tol.accepts(gx, ax);
                let y_ok = tol.accepts(gy, ay);
                if x_ok && y_ok {
                    continue;
                }
                let (axis, g, a) = if y_ok { ("x", gx, ax) } else { ("y", gy, ay) };
                hard.push(format!(
                    "@ series \"{}\" point {i} (x = {gx}):\n- {axis} = {g}\n+ {axis} = {a}\n  \
                     |diff| {:.3e} > allowed {:.3e} (rel {:.0e}, abs {:.0e})",
                    gs.name,
                    (a - g).abs(),
                    tol.allowed(g),
                    tol.rel,
                    tol.abs,
                ));
            }
        }
    }

    if golden.notes != actual.notes {
        soft.push(format!(
            "notes drift:\n- {:?}\n+ {:?}",
            golden.notes, actual.notes
        ));
    }
    (hard, soft)
}

/// One numeric claim lifted straight from the paper, checked against a
/// regenerated record — the anchor that ties the snapshot suite to the
/// publication rather than merely to the repository's own history.
#[derive(Debug, Clone)]
pub struct PaperAnchor {
    /// Golden record id the claim lives in.
    pub record: &'static str,
    /// Series name inside the record.
    pub series: &'static str,
    /// X coordinate of the anchored point (matched to 1e-9).
    pub x: f64,
    /// The paper's quoted value.
    pub paper_value: f64,
    /// Acceptance band around the quoted value.
    pub tolerance: Tolerance,
    /// Which paper claim this encodes.
    pub claim: &'static str,
}

impl PaperAnchor {
    /// Verifies the anchor against a regenerated record set.
    ///
    /// # Errors
    ///
    /// Returns a description of the failure: record/series/point missing,
    /// or the regenerated value falling outside the band around the
    /// paper's number.
    pub fn check(&self, records: &[FigureRecord]) -> Result<(), String> {
        let rec = records
            .iter()
            .find(|r| r.id == self.record)
            .ok_or_else(|| format!("anchor {}: record not regenerated", self.record))?;
        let series = rec
            .series
            .iter()
            .find(|s| s.name == self.series)
            .ok_or_else(|| format!("anchor {}/{}: series missing", self.record, self.series))?;
        let &(_, y) = series
            .points
            .iter()
            .find(|(x, _)| (x - self.x).abs() < 1e-9)
            .ok_or_else(|| {
                format!(
                    "anchor {}/{}: no point at x = {}",
                    self.record, self.series, self.x
                )
            })?;
        if self.tolerance.accepts(self.paper_value, y) {
            Ok(())
        } else {
            Err(format!(
                "anchor {}/{} at x = {}: regenerated {y} vs paper {} \
                 (allowed deviation {:.3e}) — claim: {}",
                self.record,
                self.series,
                self.x,
                self.paper_value,
                self.tolerance.allowed(self.paper_value),
                self.claim,
            ))
        }
    }
}

/// The paper-anchored claims the snapshot suite enforces. X coordinates are
/// in each record's native axis units (volts for the circuit figures,
/// metric index for the headline summary, network index for Table 3).
#[must_use]
pub fn paper_anchors() -> Vec<PaperAnchor> {
    vec![
        PaperAnchor {
            record: "fig07",
            series: "bit error rate",
            x: 0.44,
            paper_value: 1.4e-2,
            tolerance: Tolerance::band(0.05, 1e-4),
            claim: "Fig. 7: 4 Mbit test chip measures BER 1.4e-2 at 0.44 V",
        },
        PaperAnchor {
            record: "fig07",
            series: "bit error rate",
            x: 0.60,
            paper_value: 0.0,
            tolerance: Tolerance::band(0.0, 2.5e-7),
            claim: "Fig. 7: zero failing bits out of 4 Mbit at 0.60 V",
        },
        PaperAnchor {
            record: "fig08",
            series: "Vddv4",
            x: 0.40,
            paper_value: 0.60,
            tolerance: Tolerance::band(0.02, 5e-3),
            claim: "Fig. 8: full boost lifts a 0.40 V supply to ~0.60 V",
        },
        // The structural macro model must *derive* the scalar calibration:
        // the 64 Kbit bank's geometry-computed access capacitance lands on
        // Energy_ratio = 3 against the 2 pF PE op, and the replica-timed
        // 32 Kbit macro reproduces Fig. 9's boost latency win.
        PaperAnchor {
            record: "macro_model",
            series: "derived_scalars",
            x: 1.0,
            paper_value: 3.0,
            tolerance: Tolerance::band(0.0, 0.05),
            claim: "Sec. 6: Energy_ratio = 3 emerges from the 64 Kbit bank geometry",
        },
        PaperAnchor {
            record: "macro_model",
            series: "boost_macro_4",
            x: 0.5,
            paper_value: 0.65,
            tolerance: Tolerance::band(0.0, 0.05),
            claim: "Fig. 9: macro-level boost cuts access latency up to 35% at 0.5 V \
                    (structural replica-timed macro)",
        },
        PaperAnchor {
            record: "table3",
            series: "access/MAC ratio",
            x: 0.0,
            paper_value: 0.75,
            tolerance: Tolerance::band(0.0, 0.01),
            claim: "Table 3: MNIST FC on DANA does ~75 SRAM accesses per 100 MACs",
        },
        PaperAnchor {
            record: "table3",
            series: "access/MAC ratio",
            x: 1.0,
            paper_value: 0.0167,
            tolerance: Tolerance::band(0.0, 0.004),
            claim: "Table 3: AlexNet conv row-stationary does ~1.67 accesses per 100 MACs",
        },
        // The headline "paper" series literally encodes the abstract's
        // quoted numbers — compared exactly so they cannot drift silently.
        PaperAnchor {
            record: "headlines",
            series: "paper",
            x: 1.0,
            paper_value: 0.26,
            tolerance: Tolerance::exact(),
            claim: "abstract: 26% peak AlexNet savings vs dual supply",
        },
        PaperAnchor {
            record: "headlines",
            series: "paper",
            x: 4.0,
            paper_value: 0.32,
            tolerance: Tolerance::exact(),
            claim: "abstract: 32% leakage savings vs dual supply",
        },
        // The measured reproduction must land near the abstract's numbers;
        // the bands mirror the acceptance ranges of `dante::headlines`.
        PaperAnchor {
            record: "headlines",
            series: "measured",
            x: 1.0,
            paper_value: 0.26,
            tolerance: Tolerance::band(0.0, 0.10),
            claim: "reproduction of the 26% peak-savings headline",
        },
        PaperAnchor {
            record: "headlines",
            series: "measured",
            x: 2.0,
            paper_value: 0.17,
            tolerance: Tolerance::band(0.0, 0.10),
            claim: "reproduction of the 17% average-savings headline",
        },
        PaperAnchor {
            record: "headlines",
            series: "measured",
            x: 3.0,
            paper_value: 0.30,
            tolerance: Tolerance::band(0.0, 0.15),
            claim: "reproduction of the 30% savings vs single supply at 0.48 V",
        },
        PaperAnchor {
            record: "headlines",
            series: "measured",
            x: 4.0,
            paper_value: 0.32,
            tolerance: Tolerance::band(0.0, 0.13),
            claim: "reproduction of the 32% leakage-savings headline",
        },
        PaperAnchor {
            record: "headlines",
            series: "measured",
            x: 5.0,
            paper_value: 0.06,
            tolerance: Tolerance::band(0.0, 0.10),
            claim: "reproduction of the 6% booster leakage overhead",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dante_bench::record::Series;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn temp_store() -> GoldenStore {
        static N: AtomicU32 = AtomicU32::new(0);
        let unique = format!(
            "dante-verify-golden-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        );
        let base = std::env::temp_dir().join(unique);
        GoldenStore::new(base.join("golden"), base.join("diff"))
    }

    fn sample_record() -> FigureRecord {
        FigureRecord::new("figX", "a title", "x", "y")
            .with_series(Series::new("s1", vec![(0.0, 1.0), (1.0, 2.0)]))
            .with_note("a note")
    }

    #[test]
    fn bless_then_check_round_trips() {
        let store = temp_store();
        let rec = sample_record();
        assert_eq!(
            store.check_with_mode(&rec, true).unwrap(),
            GoldenOutcome::Blessed
        );
        assert_eq!(
            store.check_with_mode(&rec, false).unwrap(),
            GoldenOutcome::Match
        );
    }

    #[test]
    fn missing_golden_fails_with_bless_hint() {
        let store = temp_store();
        let err = store.check_with_mode(&sample_record(), false).unwrap_err();
        let text = err.render();
        assert!(text.contains("unreadable"), "{text}");
        assert!(text.contains("UPDATE_GOLDEN=1"), "{text}");
    }

    #[test]
    fn value_drift_beyond_tolerance_is_reported_with_both_values() {
        let store = temp_store();
        let rec = sample_record();
        store.check_with_mode(&rec, true).unwrap();
        let mut changed = rec.clone();
        changed.series[0].points[1].1 = 2.5;
        let err = store.check_with_mode(&changed, false).unwrap_err();
        let text = err.render();
        assert!(text.contains("series \"s1\" point 1"), "{text}");
        assert!(
            text.contains("- y = 2") && text.contains("+ y = 2.5"),
            "{text}"
        );
        // Artifacts were dropped for CI upload.
        let dir = err.artifacts.expect("artifact dir");
        assert!(dir.join("figX.actual.json").is_file());
        assert!(dir.join("figX.diff.txt").is_file());
    }

    #[test]
    fn notes_drift_alone_is_soft() {
        let store = temp_store();
        let rec = sample_record();
        store.check_with_mode(&rec, true).unwrap();
        let changed = sample_record().with_note("an extra note");
        assert_eq!(
            store.check_with_mode(&changed, false).unwrap(),
            GoldenOutcome::Match
        );
    }

    #[test]
    fn series_rename_is_hard_failure() {
        let store = temp_store();
        store.check_with_mode(&sample_record(), true).unwrap();
        let mut changed = sample_record();
        changed.series[0].name = "renamed".into();
        let err = store.check_with_mode(&changed, false).unwrap_err();
        assert!(err.render().contains("series set"), "{}", err.render());
    }

    #[test]
    fn tolerance_band_accepts_within_and_rejects_beyond() {
        let t = Tolerance::band(1e-3, 1e-9);
        assert!(t.accepts(1.0, 1.0005));
        assert!(!t.accepts(1.0, 1.002));
        assert!(t.accepts(0.0, 5e-10));
        let e = Tolerance::exact();
        assert!(e.accepts(2.0, 2.0));
        assert!(!e.accepts(2.0, 2.0 + f64::EPSILON * 4.0));
    }

    #[test]
    fn orphan_detection_lists_unexpected_files() {
        let store = temp_store();
        store.check_with_mode(&sample_record(), true).unwrap();
        assert!(store.orphans(&["figX"]).is_empty());
        assert_eq!(store.orphans(&["other"]), vec!["figX".to_owned()]);
    }

    #[test]
    fn anchors_reference_unique_points() {
        let anchors = paper_anchors();
        let mut keys: Vec<(&str, &str, String)> = anchors
            .iter()
            .map(|a| (a.record, a.series, format!("{:.4}", a.x)))
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), anchors.len(), "duplicate anchor");
    }

    #[test]
    fn anchor_check_reports_missing_and_out_of_band() {
        let anchor = PaperAnchor {
            record: "figX",
            series: "s1",
            x: 1.0,
            paper_value: 2.0,
            tolerance: Tolerance::band(0.0, 0.1),
            claim: "test claim",
        };
        assert!(anchor.check(&[]).unwrap_err().contains("not regenerated"));
        let rec = sample_record();
        anchor.check(std::slice::from_ref(&rec)).unwrap();
        let mut bad = rec;
        bad.series[0].points[1].1 = 3.0;
        let err = anchor.check(&[bad]).unwrap_err();
        assert!(err.contains("test claim"), "{err}");
    }
}
