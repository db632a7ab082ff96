package core

import (
	"fmt"
	"math"

	"bloc/internal/csi"
	"bloc/internal/dsp"
	"bloc/internal/geom"
)

// The production likelihood path. Every BLoc fix evaluates Eq. 17 with
// the float32 SoA kernels (polar32.go) and projects it onto the XY grid
// through per-anchor tile tables, refining a set of tiles:
//
//   - Full-grid fixes (Locate, LocateRef, LocateAlpha,
//     LocateShortestDistance, LocateOpts without a prior) select every
//     tile. Each anchor's map is normalized by its painted maximum and
//     the whole surface is scanned for Eq. 18 candidates.
//   - Tracked fixes (LocateOpts with a Prior) run the gate first. Once a
//     tag is tracked, its Kalman confidence ellipse bounds where the next
//     fix can plausibly land, and the likelihood surface is sharply
//     peaked, so evaluating the whole grid is wasted work. A coarse pass
//     evaluates every CoarseStep-th XY cell against a (θ/CoarseThetaStep,
//     Δ/CoarseDeltaStep)-decimated polar grid. The coarse surface selects
//     refinement tiles (coarse local maxima ≥ SelectSafety·PeakMinFrac of
//     the coarse maximum inside the prior ellipse, dilated by one tile
//     ring so peak neighborhoods and the entropy window stay covered),
//     unioned with every tile the prior ellipse touches. Only those tiles
//     are refined and scanned.
//
// The gate refuses whenever its assumptions fail: the coarse argmax
// lands outside the (margin-grown) prior ellipse, the coarse surface is
// too flat to select a small tile set, or the refined surface yields no
// scoreable peak. A refused fix continues in the same workspace with
// every tile selected, so it reports exactly what the prior-free fix of
// the same snapshot reports. The gate only decides *where* to look,
// never what a looked-at cell evaluates to.
//
// The whole fix runs sequentially on the calling goroutine: serving-plane
// parallelism comes from concurrent fixes, not from splitting one.
// reference.go holds the float64 oracle the kernel is tested against.

// Prior is a spatial prior for the gated search: the tracker's
// confidence ellipse (center, semi-axes in meters, orientation in
// radians CCW from +x), typically produced by GatePolicy.Prior from
// track.Filter.ConfidenceEllipse.
type Prior struct {
	Center               geom.Point
	SemiMajor, SemiMinor float64
	Theta                float64
}

// Contains reports whether q lies inside the prior ellipse grown by
// margin meters on both axes.
func (p *Prior) Contains(q geom.Point, margin float64) bool {
	a := p.SemiMajor + margin
	b := p.SemiMinor + margin
	if a <= 0 || b <= 0 {
		return false
	}
	d := q.Sub(p.Center)
	s, c := math.Sincos(p.Theta)
	u := d.X*c + d.Y*s
	v := -d.X*s + d.Y*c
	return (u/a)*(u/a)+(v/b)*(v/b) <= 1
}

// Gate-refusal reasons, reported in Result.Fallback and counted in
// Stats.
const (
	FallbackDisagree = "disagree" // coarse argmax outside the prior ellipse
	FallbackLowConf  = "lowconf"  // flat coarse surface selected too many tiles
	FallbackNoPeaks  = "nopeaks"  // refined surface yielded no scoreable peak
)

// GatePolicy turns a tracker's 1σ confidence ellipse into a search Prior
// with hysteretic inflation: every fallback doubles the prior's scale
// (the covariance is evidently under-selling the tag's mobility), every
// gated success halves it back toward 1. A GatePolicy is not safe for
// concurrent use; serving planes hold one per tag under the tag-state
// lock.
type GatePolicy struct {
	// Sigmas is the k of the k·σ ellipse (default 3).
	Sigmas float64
	// InflateOnFallback multiplies the inflation after a fallback
	// (default 2); MaxInflate caps it (default 8).
	InflateOnFallback float64
	MaxInflate        float64
	// MinRadiusM floors each semi-axis in meters (default 0.25), so a
	// fully settled filter still admits measurement-noise-sized motion.
	MinRadiusM float64

	inflate float64
}

// NewGatePolicy returns a policy with the default hysteresis parameters.
func NewGatePolicy() *GatePolicy {
	return &GatePolicy{Sigmas: 3, InflateOnFallback: 2, MaxInflate: 8, MinRadiusM: 0.25, inflate: 1}
}

// scale is the current total k·inflation factor, tolerant of zero-value
// fields so a literal GatePolicy{} still behaves like the defaults.
func (g *GatePolicy) scale() float64 {
	s := g.Sigmas
	if s <= 0 {
		s = 3
	}
	i := g.inflate
	if i < 1 {
		i = 1
	}
	return s * i
}

// Prior scales a 1σ ellipse (center, semi-axes, orientation — the shape
// track.Filter.ConfidenceEllipse(1) reports) by the current
// k·inflation and applies the radius floor.
func (g *GatePolicy) Prior(center geom.Point, semiMajor, semiMinor, theta float64) Prior {
	s := g.scale()
	a, b := semiMajor*s, semiMinor*s
	min := g.MinRadiusM
	if min <= 0 {
		min = 0.25
	}
	if a < min {
		a = min
	}
	if b < min {
		b = min
	}
	return Prior{Center: center, SemiMajor: a, SemiMinor: b, Theta: theta}
}

// Observe updates the hysteresis from a fix outcome: gated successes
// decay the inflation, fallbacks grow it. Full-grid fixes that never
// attempted the gate (Fallback == "") leave it unchanged.
func (g *GatePolicy) Observe(res *Result) {
	if g.inflate < 1 {
		g.inflate = 1
	}
	switch {
	case res == nil:
	case res.Gated:
		g.inflate /= 2
		if g.inflate < 1 {
			g.inflate = 1
		}
	case res.Fallback != "":
		f := g.InflateOnFallback
		if f <= 1 {
			f = 2
		}
		max := g.MaxInflate
		if max < 1 {
			max = 8
		}
		g.inflate *= f
		if g.inflate > max {
			g.inflate = max
		}
	}
}

// LocateOptions parameterizes LocateOpts.
type LocateOptions struct {
	// Ref is the reference anchor (LocateRef semantics).
	Ref int
	// Prior, when non-nil, enables the gated coarse-to-fine search
	// bounded by the tracker's confidence ellipse. Nil runs the plain
	// full-grid path.
	Prior *Prior
}

// LocateOpts runs the BLoc pipeline with serving-plane options: an
// elected reference anchor and an optional tracker prior. With a prior
// it attempts the gated coarse-to-fine search and transparently falls
// back to the full grid when the gate refuses (Result.Fallback names the
// trigger); without one it is exactly LocateRef.
func (e *Engine) LocateOpts(s *csi.Snapshot, opts LocateOptions) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid snapshot: %w", err)
	}
	if opts.Ref < 0 || opts.Ref >= s.NumAnchors() {
		return nil, fmt.Errorf("core: reference anchor %d out of range [0,%d)", opts.Ref, s.NumAnchors())
	}
	box := e.getAlpha(s.NumBands(), s.NumAnchors(), s.NumAntennas())
	defer e.putAlpha(box)
	return e.locateAlpha(e.correctInto(s, opts.Ref, box), opts.Prior, bestByScore)
}

// gatedTables holds the precomputed coarse and tiled projection tables
// for one reference anchor. Immutable after construction.
type gatedTables struct {
	cnx, cny int // coarse XY grid dims (every CoarseStep-th cell)
	cT, cD   int // decimated polar dims
	tnx, tny int // refinement tiling dims (TileCells edge)

	coarse []coarseProj  // per anchor
	tiles  []anchorTiles // per anchor
	bytes  int
}

// coarseProj maps each in-range coarse XY cell of one anchor to its
// decimated polar sources: the nearest decimated θ row, and a two-tap
// linear interpolation between adjacent decimated Δ columns (src and
// src+1, weighted w). The Δ magnitude profile is smooth (see
// polar32.go), so interpolating Δ lets the coarse pass halve its Δ
// sample count without widening the undershoot that SelectSafety must
// absorb; θ stays nearest-row, which dominates the residual undershoot.
type coarseProj struct {
	xy  []int32   // coarse XY index (ciy*cnx + cix)
	src []int32   // low decimated polar tap (ct*cD + cd); src+1 in-row
	w   []float32 // Δ interpolation weight of the src+1 tap
	// dLo/dHi give, per decimated θ row, the half-open decimated-Δ span
	// any coarse cell samples; rows nobody samples have dLo >= dHi.
	dLo, dHi []int32
}

// anchorTiles regroups one anchor's full-resolution projection cells
// by refinement tile, in SoA float32 lanes: tile ti's cells occupy lane
// indices [off[ti], off[ti+1]). tLo/tHi and dLo/dHi bound, per tile,
// the polar rows and Δ columns the tile's cells sample (half-open), so
// the refinement kernel fills only what the selected tiles will read.
// rowLo/rowHi give, per θ row, the half-open Δ span any of the anchor's
// cells samples — the exact fill span when every tile is selected; rows
// no cell maps to have rowLo >= rowHi.
type anchorTiles struct {
	off                []int32
	tLo, tHi, dLo, dHi []int32
	rowLo, rowHi       []int32

	xy                 []int32
	i00, i10, i01, i11 []int32
	w00, w10, w01, w11 []float32
}

// buildGatedFor derives the coarse nearest-sample tables from the
// deployment geometry and regroups each anchor's full-resolution
// projection cells (buildTablesFor) by tile.
func (e *Engine) buildGatedFor(ref int, cells [][]projCell) *gatedTables {
	g := &e.cfg.Gate
	cs, ts, ds, tc := g.CoarseStep, g.CoarseThetaStep, g.CoarseDeltaStep, g.TileCells
	T, D := len(e.thetas), len(e.deltas)
	gt := &gatedTables{
		cnx: (e.nx + cs - 1) / cs, cny: (e.ny + cs - 1) / cs,
		cT: (T + ts - 1) / ts, cD: (D + ds - 1) / ds,
		tnx: (e.nx + tc - 1) / tc, tny: (e.ny + tc - 1) / tc,
	}

	tStep := e.thetas[1] - e.thetas[0]
	dStep := e.deltas[1] - e.deltas[0]
	tMin, tMax := e.thetas[0], e.thetas[len(e.thetas)-1]
	dMin, dMax := e.deltas[0], e.deltas[len(e.deltas)-1]
	master0 := e.anchors[ref].Antenna(0)

	gt.coarse = make([]coarseProj, len(e.anchors))
	for i, arr := range e.anchors {
		cp := &gt.coarse[i]
		cp.dLo = make([]int32, gt.cT)
		cp.dHi = make([]int32, gt.cT)
		for ct := range cp.dLo {
			cp.dLo[ct] = int32(gt.cD)
		}
		ant0 := arr.Antenna(0)
		for ciy := 0; ciy < gt.cny; ciy++ {
			for cix := 0; cix < gt.cnx; cix++ {
				p := e.CellCenter(cix*cs, ciy*cs)
				theta := arr.AngleTo(p)
				delta := p.Dist(ant0) - p.Dist(master0)
				if theta < tMin || theta > tMax || delta < dMin || delta > dMax {
					continue
				}
				ct := int((theta-tMin)/tStep/float64(ts) + 0.5)
				if ct > gt.cT-1 {
					ct = gt.cT - 1
				}
				fd := (delta - dMin) / dStep / float64(ds)
				cd := int(fd)
				w := float32(fd - float64(cd))
				// Keep both taps inside the row; past the last sample
				// pair the low tap is held and the weight saturates.
				if cd > gt.cD-2 {
					cd = gt.cD - 2
					w = 1
					if cd < 0 { // degenerate single-column grid
						cd, w = 0, 0
					}
				}
				cdHi := cd + 1
				if cdHi > gt.cD-1 {
					cdHi = gt.cD - 1
				}
				cp.xy = append(cp.xy, int32(ciy*gt.cnx+cix))
				cp.src = append(cp.src, int32(ct*gt.cD+cd))
				cp.w = append(cp.w, w)
				if int32(cd) < cp.dLo[ct] {
					cp.dLo[ct] = int32(cd)
				}
				if int32(cdHi+1) > cp.dHi[ct] {
					cp.dHi[ct] = int32(cdHi + 1)
				}
			}
		}
	}

	nt := gt.tnx * gt.tny
	gt.tiles = make([]anchorTiles, len(e.anchors))
	for i := range cells {
		cells := cells[i]
		at := &gt.tiles[i]
		at.off = make([]int32, nt+1)
		at.tLo, at.tHi = make([]int32, nt), make([]int32, nt)
		at.dLo, at.dHi = make([]int32, nt), make([]int32, nt)
		for ti := range at.tLo {
			at.tLo[ti], at.dLo[ti] = int32(T), int32(D)
		}
		at.rowLo, at.rowHi = make([]int32, T), make([]int32, T)
		for t := range at.rowLo {
			at.rowLo[t] = int32(D) // empty span until a cell claims the row
		}
		for ci := range cells {
			at.off[e.tileOf(int(cells[ci].xy), gt.tnx)+1]++
		}
		for ti := 0; ti < nt; ti++ {
			at.off[ti+1] += at.off[ti]
		}
		n := len(cells)
		at.xy = make([]int32, n)
		at.i00, at.i10 = make([]int32, n), make([]int32, n)
		at.i01, at.i11 = make([]int32, n), make([]int32, n)
		at.w00, at.w10 = make([]float32, n), make([]float32, n)
		at.w01, at.w11 = make([]float32, n), make([]float32, n)
		cursor := make([]int32, nt)
		copy(cursor, at.off[:nt])
		for ci := range cells {
			c := &cells[ci]
			ti := e.tileOf(int(c.xy), gt.tnx)
			k := cursor[ti]
			cursor[ti]++
			at.xy[k] = c.xy
			at.i00[k], at.i10[k], at.i01[k], at.i11[k] = c.i00, c.i10, c.i01, c.i11
			at.w00[k], at.w10[k] = float32(c.w00), float32(c.w10)
			at.w01[k], at.w11[k] = float32(c.w01), float32(c.w11)
			// Polar bounding box: i00 is the (low θ, low Δ) corner and i11
			// the (high θ, high Δ) corner by construction.
			t0, t1 := c.i00/int32(D), c.i11/int32(D)
			d0, d1 := c.i00%int32(D), c.i11%int32(D)
			if t0 < at.tLo[ti] {
				at.tLo[ti] = t0
			}
			if t1+1 > at.tHi[ti] {
				at.tHi[ti] = t1 + 1
			}
			if d0 < at.dLo[ti] {
				at.dLo[ti] = d0
			}
			if d1+1 > at.dHi[ti] {
				at.dHi[ti] = d1 + 1
			}
			for _, t := range [2]int32{t0, t1} {
				if d0 < at.rowLo[t] {
					at.rowLo[t] = d0
				}
				if d1+1 > at.rowHi[t] {
					at.rowHi[t] = d1 + 1
				}
			}
		}
	}

	for i := range gt.coarse {
		cp := &gt.coarse[i]
		gt.bytes += (len(cp.xy) + len(cp.src) + len(cp.w) + len(cp.dLo) + len(cp.dHi)) * 4
		at := &gt.tiles[i]
		gt.bytes += (len(at.off) + 4*nt + 2*T) * 4 // off + four bbox lanes + row spans
		gt.bytes += len(at.xy) * 4 * 9             // nine 4-byte SoA lanes
	}
	return gt
}

// tileOf maps a full-resolution XY cell index to its refinement tile.
func (e *Engine) tileOf(xy, tnx int) int {
	tc := e.cfg.Gate.TileCells
	return (xy / e.nx / tc * tnx) + (xy % e.nx / tc)
}

// locateAlpha is the shared likelihood + peak-selection tail of the BLoc
// estimators; selector picks the winning candidate (Eq. 18 score or the
// §8.7 shortest-distance ablation). A non-nil prior attempts the gate
// first; without one, or when the gate refuses, every tile is refined in
// the same workspace.
func (e *Engine) locateAlpha(a *Alpha, prior *Prior, selector func([]Candidate) (Candidate, bool)) (*Result, error) {
	if err := e.checkAlpha(a); err != nil {
		return nil, err
	}
	ps := e.planesFor(a.Freqs)
	gt := e.gatedFor(a.Ref)
	r := e.startRun(a)
	defer e.putGatedRun(r)
	combined := dsp.NewGrid(e.nx, e.ny)

	var reason string
	if prior != nil {
		var refined int
		refined, reason = e.selectTiles(ps, gt, a, prior, r)
		if reason == "" {
			e.refine(ps, gt, a, r, false, combined)
			kept := e.gatedCandidates(gt, r, combined)
			if best, ok := selector(kept); ok {
				nt := gt.tnx * gt.tny
				e.statFixes.Add(1)
				e.statGatedFixes.Add(1)
				e.statTilesRefined.Add(uint64(refined))
				e.statTilesTotal.Add(uint64(nt))
				return &Result{
					Estimate:     best.Loc,
					Candidates:   kept,
					Likelihood:   combined,
					Gated:        true,
					TilesRefined: refined,
					TilesTotal:   nt,
				}, nil
			}
			reason = FallbackNoPeaks
			clear(combined.Data)
		}
		switch reason {
		case FallbackDisagree:
			e.statFallbackDisagree.Add(1)
		case FallbackLowConf:
			e.statFallbackLowConf.Add(1)
		default:
			e.statFallbackNoPeaks.Add(1)
		}
	}

	e.refine(ps, gt, a, r, true, combined)
	cands := e.candidates(combined)
	best, ok := selector(cands)
	if !ok {
		return nil, fmt.Errorf("core: no likelihood peaks found")
	}
	e.statFixes.Add(1)
	e.statFullFixes.Add(1)
	return &Result{Estimate: best.Loc, Candidates: cands, Likelihood: combined, Fallback: reason}, nil
}

// startRun draws a fix workspace from the pool and sizes it for a: the
// active anchors (those with a usable band), the accumulator planes and
// the folded beamforming coefficients.
func (e *Engine) startRun(a *Alpha) *gatedRun {
	r := e.getGatedRun()
	r.active = r.active[:0]
	for i := 0; i < a.NumAnchors(); i++ {
		if a.PresentBands(i) > 0 {
			r.active = append(r.active, i)
		}
	}
	r.acc = growF32(r.acc, 2*len(e.deltas))
	r.avp = growC128(r.avp, a.NumBands()*a.NumAntennas())
	return r
}

// coarsePass evaluates the decimated surface of every active anchor into
// r.ccomb (each anchor normalized by its coarse maximum, recorded in
// r.cmax) and returns the coarse global maximum and its index (-1 when
// the surface is empty). r comes from startRun.
func (e *Engine) coarsePass(ps *planeSet, gt *gatedTables, a *Alpha, r *gatedRun) (float32, int) {
	nc := gt.cnx * gt.cny
	r.ccomb = growF32(r.ccomb, nc)
	clear(r.ccomb)
	r.cpolar = growF32(r.cpolar, gt.cT*gt.cD+1)
	r.cpolar[gt.cT*gt.cD] = 0 // headroom slot for the saturated last Δ tap
	r.cmax = growF64(r.cmax, a.NumAnchors())
	for _, i := range r.active {
		cp := &gt.coarse[i]
		bfCoeffs(ps, a, i, r.avp)
		e.coarsePolarFill32(ps, cp, a, i, gt.cT, gt.cD, r.cpolar, r.acc, r.avp)
		r.cvals = growF32(r.cvals, len(cp.src))
		var m float32
		for c, src := range cp.src {
			v := r.cpolar[src]
			v += (r.cpolar[src+1] - v) * cp.w[c]
			r.cvals[c] = v
			if v > m {
				m = v
			}
		}
		r.cmax[i] = float64(m)
		inv := float32(1)
		if e.cfg.NormalizePerAnchor && m > 0 {
			inv = 1 / m
		}
		for c, xy := range cp.xy {
			r.ccomb[xy] += r.cvals[c] * inv
		}
	}
	var cmax float32
	argc := -1
	for c, v := range r.ccomb {
		if v > cmax {
			cmax, argc = v, c
		}
	}
	return cmax, argc
}

// selectTiles runs the gate: the coarse pass, the agreement check against
// the prior and the tile selection. On success it leaves the refinement
// mask in r.dil and returns the number of selected tiles; otherwise it
// returns the refusal reason.
func (e *Engine) selectTiles(ps *planeSet, gt *gatedTables, a *Alpha, prior *Prior, r *gatedRun) (int, string) {
	g := &e.cfg.Gate
	cmax, argc := e.coarsePass(ps, gt, a, r)
	if argc < 0 || !(cmax > 0) {
		return 0, FallbackNoPeaks
	}
	coarseEst := e.CellCenter(argc%gt.cnx*g.CoarseStep, argc/gt.cnx*g.CoarseStep)
	if !prior.Contains(coarseEst, g.DisagreeMarginM) {
		return 0, FallbackDisagree
	}

	// A tile is value-selected when it contains a coarse local maximum
	// at ≥ SelectSafety·PeakMinFrac of the coarse global maximum — the
	// decimated mirror of FindPeaks' acceptance rule, with SelectSafety
	// absorbing decimation undershoot — AND that maximum is compatible
	// with the prior (inside the margin-grown ellipse). This is where
	// the tracker actually prunes work: the multipath surface carries
	// reflection peaks all over the room, but for a tracked tag every
	// peak outside the confidence ellipse is one the downstream track
	// gate would reject anyway, so it is never refined or scored. The
	// dominant peak's compatibility was just established by the
	// disagree check, so at least one tile is always selected.
	nt := gt.tnx * gt.tny
	r.sel = growBools(r.sel, nt)
	clear(r.sel)
	thr := float32(g.SelectSafety*e.cfg.PeakMinFrac) * cmax
	nSel := 0
	for c, v := range r.ccomb {
		if v < thr {
			continue
		}
		cix, ciy := c%gt.cnx, c/gt.cnx
		if !prior.Contains(e.CellCenter(cix*g.CoarseStep, ciy*g.CoarseStep), g.DisagreeMarginM) {
			continue
		}
		localMax := true
		for dy := -1; dy <= 1 && localMax; dy++ {
			for dx := -1; dx <= 1; dx++ {
				qx, qy := cix+dx, ciy+dy
				if qx < 0 || qx >= gt.cnx || qy < 0 || qy >= gt.cny {
					continue
				}
				if r.ccomb[qy*gt.cnx+qx] > v {
					localMax = false
					break
				}
			}
		}
		if !localMax {
			continue
		}
		ti := e.tileOf((ciy*g.CoarseStep)*e.nx+cix*g.CoarseStep, gt.tnx)
		if !r.sel[ti] {
			r.sel[ti] = true
			nSel++
		}
	}
	if float64(nSel) > g.MaxTileFrac*float64(nt) {
		return 0, FallbackLowConf
	}
	// Peak-bearing tiles get a one-tile ring: it absorbs the coarse→full
	// argmax shift and keeps the Eq. 18 entropy window (±EntropyWindow/2
	// · EntropyStride cells < TileCells) fully painted around any
	// candidate.
	r.dil = growBools(r.dil, nt)
	clear(r.dil)
	refined := 0
	for ti, on := range r.sel {
		if !on {
			continue
		}
		tix, tiy := ti%gt.tnx, ti/gt.tnx
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				qx, qy := tix+dx, tiy+dy
				if qx < 0 || qx >= gt.tnx || qy < 0 || qy >= gt.tny {
					continue
				}
				if !r.dil[qy*gt.tnx+qx] {
					r.dil[qy*gt.tnx+qx] = true
					refined++
				}
			}
		}
	}
	// Tiles the prior ellipse touches are refined too (undilated — they
	// carry no coarse peak, they just keep the tag's plausible
	// neighborhood painted): tile-vs-ellipse intersection is
	// approximated conservatively by growing the ellipse by the tile
	// half-diagonal.
	halfDiag := float64(g.TileCells) * e.cfg.CellM * math.Sqrt2 / 2
	for tiy := 0; tiy < gt.tny; tiy++ {
		for tix := 0; tix < gt.tnx; tix++ {
			center := e.CellCenter(tix*g.TileCells+g.TileCells/2, tiy*g.TileCells+g.TileCells/2)
			ti := tiy*gt.tnx + tix
			if !r.dil[ti] && prior.Contains(center, halfDiag) {
				r.dil[ti] = true
				refined++
			}
		}
	}
	return refined, ""
}

// refine evaluates the full-resolution likelihood of every active anchor
// on the selected tiles — all of them when all is set, otherwise the
// r.dil mask — and adds each anchor's normalized map into combined.
// r comes from startRun; the gated mode also reads the coarse maxima
// r.cmax.
func (e *Engine) refine(ps *planeSet, gt *gatedTables, a *Alpha, r *gatedRun, all bool, combined *dsp.Grid) {
	T, D := len(e.thetas), len(e.deltas)
	r.polar = growF32(r.polar, T*D)
	r.rowLo = growI32(r.rowLo, T)
	r.rowHi = growI32(r.rowHi, T)
	cd := combined.Data
	for _, i := range r.active {
		at := &gt.tiles[i]
		rowLo, rowHi := at.rowLo, at.rowHi
		if !all {
			rowLo, rowHi = r.rowLo, r.rowHi
			for t := range rowLo {
				rowLo[t], rowHi[t] = int32(D), 0
			}
			painted := false
			for ti, on := range r.dil {
				if !on || at.off[ti+1] == at.off[ti] {
					continue
				}
				painted = true
				for t := at.tLo[ti]; t < at.tHi[ti]; t++ {
					if at.dLo[ti] < rowLo[t] {
						rowLo[t] = at.dLo[ti]
					}
					if at.dHi[ti] > rowHi[t] {
						rowHi[t] = at.dHi[ti]
					}
				}
			}
			if !painted {
				continue
			}
		}
		bfCoeffs(ps, a, i, r.avp)
		e.polarFill32(ps, a, i, r.polar, rowLo, rowHi, r.acc, r.avp)

		// Paint the selected tiles, collecting the painted maximum for
		// the deferred normalization.
		r.vals = r.vals[:0]
		var pm float32
		for ti := 0; ti+1 < len(at.off); ti++ {
			if !all && !r.dil[ti] {
				continue
			}
			for c := at.off[ti]; c < at.off[ti+1]; c++ {
				v := r.polar[at.i00[c]]*at.w00[c] + r.polar[at.i10[c]]*at.w10[c] +
					r.polar[at.i01[c]]*at.w01[c] + r.polar[at.i11[c]]*at.w11[c]
				r.vals = append(r.vals, v)
				if v > pm {
					pm = v
				}
			}
		}
		// With every tile painted, pm is the anchor's map maximum. A
		// gated fix paints a subset, and the true maximum may lie outside
		// it; the coarse maximum (an exact float32 evaluation of the same
		// surface at decimated points) recovers it to within decimation
		// error, keeping the per-anchor weighting close to the full
		// grid's.
		denom := float64(pm)
		if !all && r.cmax[i] > denom {
			denom = r.cmax[i]
		}
		inv := 1.0
		if e.cfg.NormalizePerAnchor && denom > 0 {
			inv = 1 / denom
		}
		n := 0
		for ti := 0; ti+1 < len(at.off); ti++ {
			if !all && !r.dil[ti] {
				continue
			}
			for c := at.off[ti]; c < at.off[ti+1]; c++ {
				cd[at.xy[c]] += float64(r.vals[n]) * inv
				n++
			}
		}
	}
}

// gatedCandidates scans a gated surface for Eq. 18 candidates. Painting
// only a subset of tiles creates artificial cliffs at the selection
// boundary, and a background cell on the high side of a cliff is a local
// maximum the full grid would never report. True candidates sit inside a
// value tile (± the coarse→full shift), a full ring away from any
// boundary — so any candidate whose 3×3 neighborhood leaves the refined
// region is a truncation artifact and is dropped before Eq. 18 gets to
// score it. The surface is zero outside the selected tiles, so the peak
// scan only needs their bounding rect (candidatesIn): same peaks, a
// fraction of the full-grid scan.
func (e *Engine) gatedCandidates(gt *gatedTables, r *gatedRun, combined *dsp.Grid) []Candidate {
	tc := e.cfg.Gate.TileCells
	minTx, minTy, maxTx, maxTy := gt.tnx, gt.tny, -1, -1
	for ti, on := range r.dil {
		if !on {
			continue
		}
		tix, tiy := ti%gt.tnx, ti/gt.tnx
		minTx, maxTx = min(minTx, tix), max(maxTx, tix)
		minTy, maxTy = min(minTy, tiy), max(maxTy, tiy)
	}
	cands := e.candidatesIn(combined, minTx*tc, minTy*tc, (maxTx+1)*tc, (maxTy+1)*tc)
	kept := cands[:0]
	for _, c := range cands {
		fx, fy := e.cellOf(c.Loc)
		ix, iy := int(fx+0.5), int(fy+0.5)
		interior := true
		for dy := -1; dy <= 1 && interior; dy++ {
			for dx := -1; dx <= 1; dx++ {
				qx, qy := ix+dx, iy+dy
				if qx < 0 || qx >= e.nx || qy < 0 || qy >= e.ny {
					continue
				}
				if !r.dil[e.tileOf(qy*e.nx+qx, gt.tnx)] {
					interior = false
					break
				}
			}
		}
		if interior {
			kept = append(kept, c)
		}
	}
	return kept
}
