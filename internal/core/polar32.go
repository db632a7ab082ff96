package core

import (
	"math"
)

// The production Eq. 17 polar kernel: the float32 SoA kernels every BLoc
// fix runs, full-grid and gated alike (gated.go). Three departures from
// the float64 oracle kernel (reference.go), each bounded by a dedicated
// test:
//
//   - The Δ accumulation runs on the planeSet's float32 SoA lanes,
//     halving the memory traffic of the likelihood's dominant loop
//     (TestPolarFill32Golden pins the float32 plane to the oracle).
//   - The beamforming sum B(θ, k) reads the precomputed rotor powers
//     (planeSet.stepPows) instead of walking a serial rotor chain, and
//     the per-band phase product e^{−ι w_k D_i}·conj(e^{−ι w_k D_r}) is
//     folded into the channel coefficients once per call (bfCoeffs) —
//     both are exact restructurings, not approximations.
//   - The refinement sweep exploits that the polar magnitude is smooth:
//     along Δ it is band-limited by the sounded channel spread
//     (correlation scale of meters against a few-centimeter grid), and
//     along θ a J-element array's beam pattern has only ~J degrees of
//     freedom across the aperture. polarFill32 therefore evaluates every
//     RefineDeltaStep-th column of every RefineThetaStep-th row exactly
//     and fills the rest by linear interpolation
//     (TestPolarFill32InterpError bounds the error at peak cells).
//
// End to end, the golden tests pin a fix's likelihood surface at both
// strides 1 to within 1e-6 of the oracle surface's maximum, and the
// default strides to the oracle pipeline's median and p90 error
// (golden_test.go).

// bfCoeffs folds the anchor/reference phase rotors into one anchor's
// corrected-channel coefficients: avp[k*J+j] = α_kj · e^{−ι w_k D_i} ·
// conj(e^{−ι w_k D_r}), with absent bands zeroed so the row loops skip
// them via the exact b == 0 test. avp must be K·J long.
func bfCoeffs(ps *planeSet, a *Alpha, anchor int, avp []complex128) {
	K, J := a.NumBands(), a.NumAntennas()
	phase := ps.phase[anchor]
	rphase := ps.phase[a.Ref]
	for k := 0; k < K; k++ {
		row := avp[k*J : k*J+J]
		if !a.Present(k, anchor) {
			for j := range row {
				row[j] = 0
			}
			continue
		}
		m := phase[k] * conj(rphase[k])
		av := a.Values[k][anchor]
		for j := 0; j < J; j++ {
			row[j] = av[j] * m
		}
	}
}

// beamSum evaluates B(θ_t, k) from the folded coefficients and the
// precomputed rotor powers pk (the P = J−1 powers for this (row, band)).
// The J = 4 case — the paper's arrays — is unrolled so the three
// independent complex multiplies pipeline instead of serializing.
func beamSum(c []complex128, pk []complex128, J int) complex128 {
	if J == 4 {
		return c[0] + c[1]*pk[0] + c[2]*pk[1] + c[3]*pk[2]
	}
	b := c[0]
	for j := 1; j < J; j++ {
		b += c[j] * pk[j-1]
	}
	return b
}

// coarsePolarFill32 evaluates one anchor's polar likelihood at the
// decimated (θ, Δ) samples of the coarse pass: row ct is the full-grid
// row ct·CoarseThetaStep, column cd the full-grid column
// cd·CoarseDeltaStep, read from the planeSet's contiguous coarse lanes.
// Only the per-row spans of cp are computed; cpolar must be cT·cD long,
// acc at least 2·cD, and avp holds this anchor's bfCoeffs.
func (e *Engine) coarsePolarFill32(ps *planeSet, cp *coarseProj, a *Alpha, anchor, cT, cD int, cpolar, acc []float32, avp []complex128) {
	K, J := a.NumBands(), a.NumAntennas()
	ts := e.cfg.Gate.CoarseThetaStep
	pows := ps.stepPows[e.spacingIdx[anchor]]
	P := ps.stepP
	accRe, accIm := acc[:cD], acc[cD:2*cD]

	for ct := 0; ct < cT; ct++ {
		lo, hi := int(cp.dLo[ct]), int(cp.dHi[ct])
		if lo >= hi {
			continue // no coarse cell samples this row
		}
		are, aim := accRe[lo:hi], accIm[lo:hi]
		for d := range are {
			are[d] = 0
			aim[d] = 0
		}
		t := ct * ts
		prow := pows[t*K*P : (t*K+K)*P]
		for k := 0; k < K; k++ {
			b := beamSum(avp[k*J:k*J+J], prow[k*P:k*P+P], J)
			//lint:ignore floateq skip beamforming sums that are exactly zero
			if b == 0 {
				continue
			}
			bRe, bIm := float32(real(b)), float32(imag(b))
			row := k * cD
			bre, bim := ps.cbaseRe32[row+lo:row+hi], ps.cbaseIm32[row+lo:row+hi]
			for d := range bre {
				are[d] += bRe*bre[d] - bIm*bim[d]
				aim[d] += bRe*bim[d] + bIm*bre[d]
			}
		}
		out := cpolar[ct*cD+lo : ct*cD+hi]
		for d := range out {
			out[d] = float32(math.Sqrt(float64(are[d]*are[d] + aim[d]*aim[d])))
		}
	}
}

// polarFill32 computes one anchor's full-resolution polar likelihood
// into polar (T·D float32), restricted per θ row to the half-open Δ span
// [rowLo[t], rowHi[t]) — the union of the selected refinement tiles'
// polar bounding boxes. Rows with an empty span are skipped and their
// cells left stale; the tiled projection reads only spanned cells. acc
// must be at least 2·D and avp holds this anchor's bfCoeffs.
//
// Sampling: only every RefineThetaStep-th row (plus the last) is
// evaluated, over the union of its neighbors' spans so the skipped rows
// can be interpolated from fully-painted sources; within a row the
// sweep evaluates every RefineDeltaStep-th column (plus the final one).
// Both strides at 1 recover the exact kernel, which is what the golden
// test pins against the float64 oracle.
func (e *Engine) polarFill32(ps *planeSet, a *Alpha, anchor int, polar []float32, rowLo, rowHi []int32, acc []float32, avp []complex128) {
	D, K := len(e.deltas), a.NumBands()
	J := a.NumAntennas()
	S := e.cfg.Gate.RefineDeltaStep
	RT := e.cfg.Gate.RefineThetaStep
	T := len(rowLo)
	pows := ps.stepPows[e.spacingIdx[anchor]]
	P := ps.stepP
	accRe, accIm := acc[:D], acc[D:2*D]

	for t := 0; t < T; t++ {
		if t%RT != 0 && t != T-1 {
			continue
		}
		// Effective span: the union over the rows this sample supports,
		// so every interpolated cell has painted sources.
		lo, hi := D, 0
		for u := t - RT + 1; u <= t+RT-1; u++ {
			if u < 0 || u >= T {
				continue
			}
			if int(rowLo[u]) < lo {
				lo = int(rowLo[u])
			}
			if int(rowHi[u]) > hi {
				hi = int(rowHi[u])
			}
		}
		if lo >= hi {
			continue
		}
		// Exact samples at lo, lo+S, …, lo+(m-1)·S, stored compactly in
		// acc[0:m]; one extra sample at hi-1 when the stride misses it.
		m := (hi-1-lo)/S + 1
		last := lo + (m-1)*S
		tailRe, tailIm := float32(0), float32(0)
		needTail := last < hi-1
		are, aim := accRe[:m], accIm[:m]
		for i := range are {
			are[i] = 0
			aim[i] = 0
		}
		prow := pows[t*K*P : (t*K+K)*P]
		for k := 0; k < K; k++ {
			b := beamSum(avp[k*J:k*J+J], prow[k*P:k*P+P], J)
			//lint:ignore floateq skip beamforming sums that are exactly zero
			if b == 0 {
				continue
			}
			bRe, bIm := float32(real(b)), float32(imag(b))
			row := k * D
			bre, bim := ps.baseRe32[row:row+D], ps.baseIm32[row:row+D]
			idx := lo
			for i := 0; i < m; i++ {
				br, bi := bre[idx], bim[idx]
				are[i] += bRe*br - bIm*bi
				aim[i] += bRe*bi + bIm*br
				idx += S
			}
			if needTail {
				br, bi := bre[hi-1], bim[hi-1]
				tailRe += bRe*br - bIm*bi
				tailIm += bRe*bi + bIm*br
			}
		}
		// Magnitudes land at their true columns; the gaps are filled
		// in place (interpolation writes strictly between samples).
		out := polar[t*D : t*D+D]
		idx := lo
		for i := 0; i < m; i++ {
			out[idx] = float32(math.Sqrt(float64(are[i]*are[i] + aim[i]*aim[i])))
			idx += S
		}
		if needTail {
			out[hi-1] = float32(math.Sqrt(float64(tailRe*tailRe + tailIm*tailIm)))
		}
		if S > 1 {
			p0 := lo
			for p0 < hi-1 {
				p1 := p0 + S
				if p1 > hi-1 {
					p1 = hi - 1
				}
				v0 := out[p0]
				slope := (out[p1] - v0) / float32(p1-p0)
				for d := p0 + 1; d < p1; d++ {
					out[d] = v0 + slope*float32(d-p0)
				}
				p0 = p1
			}
		}
	}
	if RT == 1 {
		return
	}
	// Interpolate the skipped rows from their sampled neighbors, each of
	// which was painted over a superset of this row's span.
	for t := 0; t < T; t++ {
		if t%RT == 0 || t == T-1 {
			continue
		}
		lo, hi := int(rowLo[t]), int(rowHi[t])
		if lo >= hi {
			continue
		}
		t0 := t - t%RT
		t1 := t0 + RT
		if t1 > T-1 {
			t1 = T - 1
		}
		f := float32(t-t0) / float32(t1-t0)
		r0 := polar[t0*D : t0*D+D]
		r1 := polar[t1*D : t1*D+D]
		out := polar[t*D : t*D+D]
		for d := lo; d < hi; d++ {
			out[d] = r0[d]*(1-f) + r1[d]*f
		}
	}
}
