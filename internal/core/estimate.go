package core

import (
	"fmt"
	"math"
	"math/cmplx"

	"bloc/internal/csi"
	"bloc/internal/dsp"
	"bloc/internal/geom"
)

// Result is a localization outcome.
type Result struct {
	Estimate   geom.Point  // the reported tag position
	Candidates []Candidate // every scored likelihood peak
	Likelihood *dsp.Grid   // the combined XY likelihood (shared, do not mutate)

	// Gated reports whether the fix was served by the prior-gated
	// coarse-to-fine path (LocateOpts with a Prior); its Likelihood is
	// then zero outside the refined tiles.
	Gated bool
	// Fallback names the gate-refusal reason (FallbackDisagree,
	// FallbackLowConf, FallbackNoPeaks) when a gated attempt fell back
	// to the full grid; empty for gated successes and fixes that never
	// attempted the gate.
	Fallback string
	// TilesRefined / TilesTotal report, for gated fixes, how many
	// refinement tiles were evaluated out of how many the room has.
	TilesRefined, TilesTotal int
}

// Locate runs the full BLoc pipeline on a snapshot against the paper's
// hard-wired reference anchor 0. See LocateRef.
func (e *Engine) Locate(s *csi.Snapshot) (*Result, error) {
	return e.LocateRef(s, 0)
}

// LocateRef runs the full BLoc pipeline on a snapshot against an elected
// reference anchor: offset correction (CorrectRef), joint likelihood,
// peak scoring with Eq. 18. The corrected-channel workspace is drawn
// from the engine's pools, so steady-state calls do not pay Correct's
// nested allocations.
func (e *Engine) LocateRef(s *csi.Snapshot, ref int) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid snapshot: %w", err)
	}
	if ref < 0 || ref >= s.NumAnchors() {
		return nil, fmt.Errorf("core: reference anchor %d out of range [0,%d)", ref, s.NumAnchors())
	}
	box := e.getAlpha(s.NumBands(), s.NumAnchors(), s.NumAntennas())
	a := e.correctInto(s, ref, box)
	res, err := e.locateAlpha(a, nil, bestByScore)
	e.putAlpha(box)
	return res, err
}

// LocateAlpha runs the BLoc pipeline on already-corrected channels.
func (e *Engine) LocateAlpha(a *Alpha) (*Result, error) {
	return e.locateAlpha(a, nil, bestByScore)
}

// LocateShortestDistance is the §8.7 ablation: the same likelihood, but
// the direct path is chosen as the peak with the smallest total distance,
// without the entropy/score machinery.
func (e *Engine) LocateShortestDistance(s *csi.Snapshot) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid snapshot: %w", err)
	}
	box := e.getAlpha(s.NumBands(), s.NumAnchors(), s.NumAntennas())
	a := e.correctInto(s, 0, box)
	res, err := e.locateAlpha(a, nil, bestByShortestDistance)
	e.putAlpha(box)
	return res, err
}

// residualSearch is the shared grid-search triangulation of the baseline
// estimators (AoA, RSSI, CTE): it scans every XY cell, sums res(p, i)
// over the given anchors, stores the negated residual as a likelihood
// surface (so Result keeps the same shape across estimators) and returns
// the residual-minimizing cell's room coordinates. Ties keep the first
// cell in scan order.
func (e *Engine) residualSearch(anchors []int, res func(p geom.Point, anchor int) float64) (*dsp.Grid, geom.Point) {
	grid := dsp.NewGrid(e.nx, e.ny)
	best := math.Inf(1)
	bx, by := 0, 0
	for iy := 0; iy < e.ny; iy++ {
		for ix := 0; ix < e.nx; ix++ {
			p := e.CellCenter(ix, iy)
			var sum float64
			for _, i := range anchors {
				sum += res(p, i)
			}
			grid.Set(ix, iy, -sum)
			if sum < best {
				best, bx, by = sum, ix, iy
			}
		}
	}
	return grid, e.CellCenter(bx, by)
}

// LocateAoA is the paper's baseline (§7, §8.2): AoA-combining in the
// spirit of ArrayTrack/SpotFi. Each anchor estimates one angle of arrival
// — the strongest direction of its angular spectrum (Eq. 15, averaged
// over bands; the least-ToF path selection those Wi-Fi systems use is
// unavailable because BLE's cross-band phase is garbled) — and the
// bearings are triangulated by a least-squares grid search. When any
// anchor locks onto a reflection instead of the direct path, the fix is
// dragged away, which is exactly why this baseline suffers in multipath.
func (e *Engine) LocateAoA(s *csi.Snapshot) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.NumAnchors() != len(e.anchors) {
		return nil, fmt.Errorf("core: snapshot has %d anchors, engine %d", s.NumAnchors(), len(e.anchors))
	}
	I := s.NumAnchors()
	active := activeAnchors(s)
	if len(active) < 2 {
		return nil, fmt.Errorf("core: only %d anchors present, need >= 2 for AoA", len(active))
	}
	bearings := make([]float64, I)
	for _, i := range active {
		spec := e.angleSpectrum(s.Freqs, s.Tag, s.Have, i)
		bearings[i] = e.thetas[dsp.ArgMax(spec)]
	}
	// Triangulate: minimize the sum of squared wrapped angle residuals
	// over the anchors that actually reported.
	grid, est := e.residualSearch(active, func(p geom.Point, i int) float64 {
		d := geom.WrapAngle(e.anchors[i].AngleTo(p) - bearings[i])
		return d * d
	})
	return &Result{Estimate: est, Likelihood: grid}, nil
}

// activeAnchors lists the anchors with at least one present band row.
func activeAnchors(s *csi.Snapshot) []int {
	return s.PresentAnchors(1)
}

// LocateAoASoft is a strengthened variant of the AoA baseline (an
// extension beyond the paper): instead of committing to one bearing per
// anchor, every anchor's full angular spectrum is painted over the XY
// grid and the maps are summed, so secondary lobes still vote. It is used
// by the ablation benches to show how much of BLoc's advantage survives
// against a more generous baseline.
func (e *Engine) LocateAoASoft(s *csi.Snapshot) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.NumAnchors() != len(e.anchors) {
		return nil, fmt.Errorf("core: snapshot has %d anchors, engine %d", s.NumAnchors(), len(e.anchors))
	}
	combined := dsp.NewGrid(e.nx, e.ny)
	for _, i := range activeAnchors(s) {
		spec := e.angleSpectrum(s.Freqs, s.Tag, s.Have, i)
		xy := e.angleSpectrumToXY(spec, i, 0)
		if e.cfg.NormalizePerAnchor {
			xy.Normalize()
		}
		combined.AddGrid(xy)
	}
	_, ix, iy := combined.Max()
	return &Result{
		Estimate:   e.CellCenter(ix, iy),
		Likelihood: combined,
	}, nil
}

// LocateRSSI is a signal-strength trilateration baseline (§9.2 context):
// per anchor, the tag distance is inverted from the mean channel
// magnitude using the free-space model |h| = 1/d, then the point
// minimizing the squared range residuals over the grid is reported.
// Multipath fading corrupts |h| directly, which is the weakness the paper
// ascribes to RSSI methods (§2.2).
func (e *Engine) LocateRSSI(s *csi.Snapshot) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.NumAnchors() != len(e.anchors) {
		return nil, fmt.Errorf("core: snapshot has %d anchors, engine %d", s.NumAnchors(), len(e.anchors))
	}
	I := s.NumAnchors()
	active := activeAnchors(s)
	if len(active) < 3 {
		return nil, fmt.Errorf("core: only %d anchors present, need >= 3 for trilateration", len(active))
	}
	ranges := make([]float64, I)
	usable := make([]int, 0, len(active))
	for _, i := range active {
		var amp float64
		n := 0
		for k := range s.Tag {
			if !s.Present(k, i) {
				continue
			}
			for j := range s.Tag[k][i] {
				m := cmplx.Abs(s.Tag[k][i][j])
				if math.IsNaN(m) || math.IsInf(m, 0) {
					continue // corrupt tone: keep it out of the mean
				}
				amp += m
				n++
			}
		}
		if n == 0 {
			continue // anchor reported nothing finite
		}
		amp /= float64(n)
		// The free-space inversion 1/amp needs a strictly positive,
		// finite magnitude; a zero/denormal amp would put an Inf range
		// into the residual search and poison the grid argmax.
		if amp < refToneFloor || math.IsInf(amp, 0) {
			continue
		}
		ranges[i] = 1 / amp
		usable = append(usable, i)
	}
	if len(usable) < 3 {
		return nil, fmt.Errorf("core: only %d anchors with usable RSSI, need >= 3 for trilateration", len(usable))
	}
	// Grid search: maximize the negative range-residual sum.
	grid, est := e.residualSearch(usable, func(p geom.Point, i int) float64 {
		d := p.Dist(e.anchors[i].Center()) - ranges[i]
		return d * d
	})
	return &Result{Estimate: est, Likelihood: grid}, nil
}

// checkAlpha validates alpha dimensions against the engine and, for
// partial (degraded-mode) alphas, that enough anchors survive to
// triangulate at all.
func (e *Engine) checkAlpha(a *Alpha) error {
	if a.NumAnchors() != len(e.anchors) {
		return fmt.Errorf("core: alpha has %d anchors, engine %d", a.NumAnchors(), len(e.anchors))
	}
	if a.NumBands() == 0 || a.NumAntennas() == 0 {
		return fmt.Errorf("core: empty alpha")
	}
	if a.Ref < 0 || a.Ref >= len(e.anchors) {
		return fmt.Errorf("core: alpha reference %d out of range [0,%d)", a.Ref, len(e.anchors))
	}
	if a.Have != nil {
		if n := len(a.PresentAnchors()); n < 2 {
			return fmt.Errorf("core: only %d anchors usable in partial snapshot, need >= 2", n)
		}
	}
	return nil
}

// LocateCTE is a Bluetooth 5.1 direction-finding estimator (extension
// beyond the paper, which predates CTE): every anchor supplies the
// per-antenna relative channels recovered from one constant-tone
// acquisition on a single band; the strongest Bartlett direction per
// anchor is triangulated like LocateAoA. CTE gives BLE a clean,
// standardized angle measurement — but a single 2 MHz tone carries no
// usable distance information, so the estimator inherits AoA's
// multipath blindness, which is the comparison's point.
func (e *Engine) LocateCTE(freqHz float64, perAnchor [][]complex128) (*Result, error) {
	if len(perAnchor) != len(e.anchors) {
		return nil, fmt.Errorf("core: CTE data for %d anchors, engine has %d", len(perAnchor), len(e.anchors))
	}
	values := [][][]complex128{perAnchor} // one band
	freqs := []float64{freqHz}
	I := len(e.anchors)
	all := make([]int, I)
	bearings := make([]float64, I)
	for i := 0; i < I; i++ {
		if len(perAnchor[i]) < 2 {
			return nil, fmt.Errorf("core: anchor %d has %d CTE antennas", i, len(perAnchor[i]))
		}
		all[i] = i
		spec := e.angleSpectrum(freqs, values, nil, i)
		bearings[i] = e.thetas[dsp.ArgMax(spec)]
	}
	grid, est := e.residualSearch(all, func(p geom.Point, i int) float64 {
		d := geom.WrapAngle(e.anchors[i].AngleTo(p) - bearings[i])
		return d * d
	})
	return &Result{Estimate: est, Likelihood: grid}, nil
}
