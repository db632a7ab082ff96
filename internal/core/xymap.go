package core

import (
	"math"

	"bloc/internal/dsp"
	"bloc/internal/geom"
)

// Single-component likelihood views: the Eq. 15 angular spectrum (used by
// the AoA baselines and Fig. 6a) and the XY painters of the angle and
// distance components (Fig. 6a/6b). The combined Eq. 17 likelihood of
// the fix path lives in gated.go and polar32.go.

// angleSpectrum evaluates Eq. 15 for one anchor: the per-band angular
// spectra Pa(θ) = |Σ_j α_jk e^{−ι w_k j l sinθ}|, summed incoherently over
// bands (no cross-band phase is needed for angle, which is why AoA works
// even without offset correction). values may be the corrected α or raw
// measured channels — the per-anchor LO offset is common to all antennas
// and cancels in the magnitude. have is an optional presence mask
// (have[k][anchor]); nil means every band is usable.
//
// The per-band w_k and the (θ, k) rotors come from the cached steering
// planes instead of being recomputed T× per band per call.
func (e *Engine) angleSpectrum(freqs []float64, values [][][]complex128, have [][]bool, anchor int) []float64 {
	T := len(e.thetas)
	K := len(values)
	ps := e.planesFor(freqs)
	steps := ps.steps[e.spacingIdx[anchor]]
	out := make([]float64, T)
	for t := 0; t < T; t++ {
		var sum float64
		srow := steps[t*K : t*K+K]
		for k := 0; k < K; k++ {
			if have != nil && !have[k][anchor] {
				continue
			}
			step := srow[k]
			rot := complex(1, 0)
			var b complex128
			row := values[k][anchor]
			for j := range row {
				b += row[j] * rot
				rot *= step
			}
			bRe, bIm := real(b), imag(b)
			sum += math.Sqrt(bRe*bRe + bIm*bIm)
		}
		out[t] = sum
	}
	return out
}

// AngleLikelihoodXY maps Eq. 15 over the XY plane for one anchor: each
// cell gets the angular spectrum value of its direction (Fig. 6a).
func (e *Engine) AngleLikelihoodXY(a *Alpha, anchor int) *dsp.Grid {
	spec := e.angleSpectrum(a.Freqs, a.Values, a.Have, anchor)
	return e.angleSpectrumToXY(spec, anchor, a.Ref)
}

// angleSpectrumToXY paints a θ spectrum over the XY grid through the
// precomputed θ-only projection table (the table's angle entries do not
// depend on the reference; ref only selects the set they live in).
func (e *Engine) angleSpectrumToXY(spec []float64, anchor, ref int) *dsp.Grid {
	out := dsp.NewGrid(e.nx, e.ny)
	od := out.Data
	for _, c := range e.projections(ref)[anchor].angle {
		od[c.xy] = spec[c.i0]*(1-c.fr) + spec[c.i1]*c.fr
	}
	return out
}

// DistanceLikelihoodXY maps Eq. 16 over the XY plane for one anchor: each
// cell gets the relative-distance profile value of its hyperbola
// coordinate (Fig. 6b), through the precomputed Δ-only projection table
// of the alpha's reference. The profile comes from the oracle kernel
// (reference.go): only figures read it.
func (e *Engine) DistanceLikelihoodXY(a *Alpha, anchor int) *dsp.Grid {
	spec := e.referenceDistanceSpectrum(a, anchor)
	out := dsp.NewGrid(e.nx, e.ny)
	od := out.Data
	for _, c := range e.projections(a.Ref)[anchor].dist {
		od[c.xy] = spec[c.i0]*(1-c.fr) + spec[c.i1]*c.fr
	}
	return out
}

// GridPoint converts a grid peak to room coordinates.
func (e *Engine) GridPoint(p dsp.Peak) geom.Point { return e.CellCenter(p.IX, p.IY) }
