package core

import (
	"math"
	"math/cmplx"
	"sync"

	"bloc/internal/dsp"
	"bloc/internal/rfsim"
)

// Reference kernels. These are the original, unoptimized float64
// implementations of Eq. 15–17 and the polar→XY projection, kept
// verbatim as the one oracle the production kernels are tested against
// (golden_test.go) and benchmarked against. They recompute every steering
// table per call and derive every projection with per-cell trigonometry
// — slow, but transparently close to the paper's math.

// LikelihoodReference computes the combined XY likelihood of Eq. 17
// summed over all anchors (§5.3) with the reference kernels: per-anchor
// polar likelihood, per-cell projection and (with NormalizePerAnchor)
// normalization to unit maximum, summed over anchors. The per-anchor
// maps are also returned for inspection (Fig. 6c, Fig. 8c); anchors with
// no usable band get a nil map. It is the oracle for the production fix
// path and is not used by any serving caller.
func (e *Engine) LikelihoodReference(a *Alpha) (combined *dsp.Grid, perAnchor []*dsp.Grid) {
	I := a.NumAnchors()
	perAnchor = make([]*dsp.Grid, I)
	var wg sync.WaitGroup
	for i := 0; i < I; i++ {
		if a.PresentBands(i) == 0 {
			continue // absent anchor: no likelihood contribution
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			polar := e.referencePolarLikelihood(a, i)
			xy := e.referencePolarToXY(polar, i, a.Ref)
			if e.cfg.NormalizePerAnchor {
				xy.Normalize()
			}
			perAnchor[i] = xy
		}(i)
	}
	wg.Wait()
	combined = dsp.NewGrid(e.nx, e.ny)
	for _, xy := range perAnchor {
		if xy != nil {
			combined.AddGrid(xy)
		}
	}
	return combined, perAnchor
}

// referencePolarLikelihood evaluates the paper's Eq. 17 for one anchor on
// the engine's (θ, Δd) grid, relative to the alpha's reference r:
//
//	P_i(θ, Δ) = | Σ_j Σ_k α_jk · e^{−ι w_k j l sinθ} · e^{+ι w_k (Δ − (D_i − D_r))} |
//
// with w_k = 2π f_k / c and D_i the known anchor-to-anchor-0 distance
// (D_0 = 0, so reference 0 is the paper's formula verbatim), rebuilding
// the distance steering matrix and per-antenna rotors on every call.
func (e *Engine) referencePolarLikelihood(a *Alpha, anchor int) *dsp.Grid {
	T, D, K := len(e.thetas), len(e.deltas), a.NumBands()
	J := a.NumAntennas()
	l := e.anchors[anchor].Spacing
	dRel := e.anchorDist[anchor] - e.anchorDist[a.Ref]

	// Angular frequency per band.
	w := make([]float64, K)
	for k := 0; k < K; k++ {
		w[k] = 2 * math.Pi * a.Freqs[k] / rfsim.SpeedOfLight
	}

	// Distance steering matrix E[k][d] = e^{+ι w_k (Δ_d − (D_i − D_r))},
	// laid out row-per-band so the inner loop walks contiguous memory.
	E := make([][]complex128, K)
	for k := 0; k < K; k++ {
		row := make([]complex128, D)
		for d, delta := range e.deltas {
			s, c := math.Sincos(w[k] * (delta - dRel))
			row[d] = complex(c, s)
		}
		E[k] = row
	}

	grid := dsp.NewGrid(D, T)
	acc := make([]complex128, D)
	for t, theta := range e.thetas {
		sinT := math.Sin(theta)
		for d := range acc {
			acc[d] = 0
		}
		for k := 0; k < K; k++ {
			if !a.Present(k, anchor) {
				continue // degraded mode: band not measured at this anchor
			}
			// B(θ, k) = Σ_j α_jk · e^{−ι w_k j l sinθ}, built by repeated
			// multiplication with the per-antenna rotation.
			stepS, stepC := math.Sincos(-w[k] * l * sinT)
			step := complex(stepC, stepS)
			rot := complex(1, 0)
			var b complex128
			av := a.Values[k][anchor]
			for j := 0; j < J; j++ {
				b += av[j] * rot
				rot *= step
			}
			//lint:ignore floateq skip beamforming sums that are exactly zero
			if b == 0 {
				continue
			}
			row := E[k]
			for d := 0; d < D; d++ {
				acc[d] += b * row[d]
			}
		}
		rowOut := grid.Data[t*D : (t+1)*D]
		for d := 0; d < D; d++ {
			rowOut[d] = cmplx.Abs(acc[d])
		}
	}
	return grid
}

// referencePolarToXY resamples one anchor's polar likelihood onto the XY
// grid with per-cell trigonometry and bilinear sampling; Δ at each cell
// is measured relative to the reference anchor's antenna 0.
func (e *Engine) referencePolarToXY(polar *dsp.Grid, anchor, ref int) *dsp.Grid {
	out := dsp.NewGrid(e.nx, e.ny)
	arr := e.anchors[anchor]
	ant0 := arr.Antenna(0)
	master0 := e.anchors[ref].Antenna(0)

	tStep := e.thetas[1] - e.thetas[0]
	dStep := e.deltas[1] - e.deltas[0]
	tMin, tMax := e.thetas[0], e.thetas[len(e.thetas)-1]
	dMin, dMax := e.deltas[0], e.deltas[len(e.deltas)-1]

	for iy := 0; iy < e.ny; iy++ {
		for ix := 0; ix < e.nx; ix++ {
			p := e.CellCenter(ix, iy)
			theta := arr.AngleTo(p)
			if theta < tMin || theta > tMax {
				continue // behind the array: no likelihood contribution
			}
			delta := p.Dist(ant0) - p.Dist(master0)
			if delta < dMin || delta > dMax {
				continue
			}
			ft := (theta - tMin) / tStep
			fd := (delta - dMin) / dStep
			out.Set(ix, iy, polar.Bilinear(fd, ft))
		}
	}
	return out
}

// referenceAngleSpectrum evaluates Eq. 15 for one anchor with per-(θ, k)
// trigonometry.
func (e *Engine) referenceAngleSpectrum(freqs []float64, values [][][]complex128, have [][]bool, anchor int) []float64 {
	T := len(e.thetas)
	K := len(values)
	l := e.anchors[anchor].Spacing
	out := make([]float64, T)
	for t, theta := range e.thetas {
		sinT := math.Sin(theta)
		var sum float64
		for k := 0; k < K; k++ {
			if have != nil && !have[k][anchor] {
				continue
			}
			w := 2 * math.Pi * freqs[k] / rfsim.SpeedOfLight
			stepS, stepC := math.Sincos(-w * l * sinT)
			step := complex(stepC, stepS)
			rot := complex(1, 0)
			var b complex128
			row := values[k][anchor]
			for j := range row {
				b += row[j] * rot
				rot *= step
			}
			sum += cmplx.Abs(b)
		}
		out[t] = sum
	}
	return out
}

// referenceDistanceSpectrum evaluates Eq. 16 for one anchor with
// per-(Δ, j, k) trigonometry.
func (e *Engine) referenceDistanceSpectrum(a *Alpha, anchor int) []float64 {
	D := len(e.deltas)
	K := a.NumBands()
	J := a.NumAntennas()
	dRel := e.anchorDist[anchor] - e.anchorDist[a.Ref]
	out := make([]float64, D)
	for d, delta := range e.deltas {
		for j := 0; j < J; j++ {
			var acc complex128
			for k := 0; k < K; k++ {
				if !a.Present(k, anchor) {
					continue
				}
				w := 2 * math.Pi * a.Freqs[k] / rfsim.SpeedOfLight
				s, c := math.Sincos(w * (delta - dRel))
				acc += a.Values[k][anchor][j] * complex(c, s)
			}
			out[d] += cmplx.Abs(acc)
		}
	}
	return out
}
