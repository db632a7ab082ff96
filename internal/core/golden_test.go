package core

import (
	"math"
	"sync"
	"testing"

	"bloc/internal/csi"
	"bloc/internal/dsp"
	"bloc/internal/geom"
	"bloc/internal/testbed"
)

// The golden tests pin the production kernels to the reference kernels
// (reference.go), on full snapshots and on degraded (partial-presence)
// ones. The float64 angle spectrum must agree within 1e-9. The float32
// fix path is pinned end to end: on an engine with both refinement
// strides at 1 (no interpolation), every cell of a fix's likelihood
// surface must lie within surfaceTol of the oracle surface's maximum.
// At the default strides, TestLocateSweepMatchesReferencePipeline pins
// the fix errors instead.

const (
	goldenTol  = 1e-9
	surfaceTol = 1e-6
)

// closeTo compares with a tolerance scaled by magnitude: raw spectra
// reach O(K·J) while normalized maps live in [0, 1].
func closeTo(a, b float64) bool {
	scale := math.Abs(a)
	if s := math.Abs(b); s > scale {
		scale = s
	}
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= goldenTol*scale
}

func requireSpecEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range want {
		if !closeTo(got[i], want[i]) {
			t.Fatalf("%s: index %d: got %v, want %v", name, i, got[i], want[i])
		}
	}
}

// exactEngine returns an engine like e with both refinement strides at
// 1, so the float32 kernel evaluates every polar cell exactly.
func exactEngine(t *testing.T, e *Engine) *Engine {
	t.Helper()
	cfg := e.Config()
	cfg.Gate.RefineDeltaStep, cfg.Gate.RefineThetaStep = 1, 1
	x, err := NewEngine(e.Anchors(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// requireSurfaceClose checks every cell of a fix surface against the
// oracle surface, within surfaceTol of the oracle's maximum.
func requireSurfaceClose(t *testing.T, name string, got, want *dsp.Grid) {
	t.Helper()
	if got.W != want.W || got.H != want.H {
		t.Fatalf("%s: dimensions %dx%d != %dx%d", name, got.W, got.H, want.W, want.H)
	}
	max, _, _ := want.Max()
	if !(max > 0) {
		t.Fatalf("%s: empty oracle surface", name)
	}
	worst := 0.0
	for i := range want.Data {
		if d := math.Abs(got.Data[i] - want.Data[i]); d > worst {
			worst = d
		}
	}
	if worst > surfaceTol*max {
		t.Fatalf("%s: worst cell diverges by %g, limit %g (%g × oracle max %g)",
			name, worst, surfaceTol*max, surfaceTol, max)
	}
	t.Logf("%s: worst cell %.2e of the oracle max %.3f", name, worst/max, max)
}

// checkKernelParity runs the production kernels against their reference
// twins on one corrected snapshot: the fix surface on the exact-stride
// engine, and the angle spectrum.
func checkKernelParity(t *testing.T, e *Engine, a *Alpha) {
	t.Helper()
	x := exactEngine(t, e)
	res, err := x.LocateAlpha(a)
	if err != nil {
		t.Fatal(err)
	}
	refCombined, _ := x.LikelihoodReference(a)
	requireSurfaceClose(t, "fix likelihood surface", res.Likelihood, refCombined)
	for i := range e.anchors {
		if a.PresentBands(i) == 0 {
			continue
		}
		requireSpecEqual(t, "angle spectrum",
			e.angleSpectrum(a.Freqs, a.Values, a.Have, i),
			e.referenceAngleSpectrum(a.Freqs, a.Values, a.Have, i))
	}
}

func TestOptimizedKernelsMatchReference(t *testing.T) {
	d, err := testbed.Paper(41)
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	for _, tag := range []geom.Point{geom.Pt(0.8, -1.2), geom.Pt(-1.7, 2.1)} {
		s := d.Sounding(tag)
		a, err := Correct(s)
		if err != nil {
			t.Fatal(err)
		}
		checkKernelParity(t, e, a)
	}
}

func TestOptimizedKernelsMatchReferenceDegraded(t *testing.T) {
	d, err := testbed.Paper(42)
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	s := d.Sounding(geom.Pt(-0.4, 1.3)).MaskedCopy()
	// Knock out scattered band rows, one anchor entirely, and a few
	// master rows (which poison the band for every anchor).
	K := s.NumBands()
	for k := 0; k < K; k += 3 {
		s.MaskMissing(k, 1)
	}
	for k := 0; k < K; k++ {
		s.MaskMissing(k, 3)
	}
	s.MaskMissing(5, 0)
	s.MaskMissing(11, 0)
	a, err := Correct(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.Have == nil {
		t.Fatal("expected a partial alpha")
	}
	checkKernelParity(t, e, a)
}

// TestPooledCorrectMatchesCorrect pins the pooled corrected-channel path
// (correctInto) to the allocating reference (Correct) bit for bit, on a
// freshly built box and on a recycled one that previously held different
// data.
func TestPooledCorrectMatchesCorrect(t *testing.T) {
	d, err := testbed.Paper(43)
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	s1 := d.Sounding(geom.Pt(1.1, 0.3))
	s2 := d.Sounding(geom.Pt(-2.0, -2.4)).MaskedCopy()
	s2.MaskMissing(2, 1)
	s2.MaskMissing(7, 0)

	for _, s := range []*csi.Snapshot{s1, s2, s1} { // third run recycles the box
		want, err := Correct(s)
		if err != nil {
			t.Fatal(err)
		}
		box := e.getAlpha(s.NumBands(), s.NumAnchors(), s.NumAntennas())
		got := e.correctInto(s, 0, box)
		if (got.Have == nil) != (want.Have == nil) {
			t.Fatalf("Have mask mismatch: got nil=%v want nil=%v", got.Have == nil, want.Have == nil)
		}
		for k := range want.Values {
			for i := range want.Values[k] {
				if want.Have != nil && got.Have[k][i] != want.Have[k][i] {
					t.Fatalf("Have[%d][%d]: got %v want %v", k, i, got.Have[k][i], want.Have[k][i])
				}
				for j := range want.Values[k][i] {
					if got.Values[k][i][j] != want.Values[k][i][j] {
						t.Fatalf("alpha[%d][%d][%d]: got %v want %v",
							k, i, j, got.Values[k][i][j], want.Values[k][i][j])
					}
				}
			}
		}
		e.putAlpha(box)
	}
}

// TestLocateMatchesReferencePipeline checks the end-to-end fix path: the
// likelihood surface Locate reports on the exact-stride engine must
// match the reference pipeline's.
func TestLocateMatchesReferencePipeline(t *testing.T) {
	d, err := testbed.Paper(44)
	if err != nil {
		t.Fatal(err)
	}
	e := exactEngine(t, paperEngine(t, d))
	s := d.Sounding(geom.Pt(0.2, -2.1))
	res, err := e.Locate(s)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Correct(s)
	if err != nil {
		t.Fatal(err)
	}
	refCombined, _ := e.LikelihoodReference(a)
	requireSurfaceClose(t, "Locate likelihood surface", res.Likelihood, refCombined)
}

// TestLocateSweepMatchesReferencePipeline pins the production fix to the
// oracle pipeline (LikelihoodReference → candidates → bestByScore) over
// a 12×12 sweep of the room's cell centers. With both refinement strides
// at 1 every estimate must be identical to the oracle's. At the default
// strides interpolation may move individual estimates between nearby
// peaks, but the median and p90 localization errors must agree with the
// oracle's within one grid cell.
func TestLocateSweepMatchesReferencePipeline(t *testing.T) {
	d, err := testbed.Paper(1)
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	x := exactEngine(t, e)
	const n = 12
	room := d.Env.Room
	var prodErr, refErr []float64
	same, worstShift := 0, 0.0
	for iy := 0; iy < n; iy++ {
		for ix := 0; ix < n; ix++ {
			tag := geom.Pt(
				room.Min.X+(float64(ix)+0.5)*room.Width()/n,
				room.Min.Y+(float64(iy)+0.5)*room.Height()/n)
			s := d.Sounding(tag)
			res, err := e.Locate(s)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := x.Locate(s)
			if err != nil {
				t.Fatal(err)
			}
			a, err := Correct(s)
			if err != nil {
				t.Fatal(err)
			}
			grid, _ := e.LikelihoodReference(a)
			best, ok := bestByScore(e.candidates(grid))
			if !ok {
				t.Fatalf("%v: oracle pipeline found no peak", tag)
			}
			if exact.Estimate != best.Loc {
				t.Errorf("%v: exact-stride fix %v != oracle %v", tag, exact.Estimate, best.Loc)
			}
			prodErr = append(prodErr, res.Estimate.Dist(tag))
			refErr = append(refErr, best.Loc.Dist(tag))
			shift := res.Estimate.Dist(best.Loc)
			if shift == 0 {
				same++
			}
			worstShift = math.Max(worstShift, shift)
		}
	}
	cell := e.Config().CellM
	for _, q := range []float64{50, 90} {
		got, want := dsp.Percentile(prodErr, q), dsp.Percentile(refErr, q)
		if math.Abs(got-want) > cell {
			t.Errorf("p%.0f error %.3f m, oracle %.3f m: more than one cell (%.2f m) apart", q, got, want, cell)
		}
	}
	t.Logf("median %.3f/%.3f m, p90 %.3f/%.3f m (fix/oracle); %d of %d estimates identical, largest shift %.2f m",
		dsp.Median(prodErr), dsp.Median(refErr), dsp.Percentile(prodErr, 90), dsp.Percentile(refErr, 90),
		same, n*n, worstShift)
}

func TestEngineStats(t *testing.T) {
	d, err := testbed.Paper(45)
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	if st := e.Stats(); st.TableBytes == 0 {
		t.Fatal("projection tables should be accounted before any fix")
	}
	s := d.Sounding(geom.Pt(0.5, 0.5))
	for n := 0; n < 3; n++ {
		if _, err := e.Locate(s); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Fixes != 3 {
		t.Fatalf("Fixes = %d, want 3", st.Fixes)
	}
	if st.PlaneBuilds != 1 {
		t.Fatalf("PlaneBuilds = %d, want 1 (single band plan)", st.PlaneBuilds)
	}
	if st.PoolHits == 0 {
		t.Fatal("steady-state fixes should hit the scratch pools")
	}
	// A second band plan (Fig. 10-style subset sweep) builds one more plane.
	sub := &csi.Snapshot{
		Bands:  s.Bands[:8],
		Freqs:  s.Freqs[:8],
		Tag:    s.Tag[:8],
		Master: s.Master[:8],
	}
	if _, err := e.Locate(sub); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.PlaneBuilds != 2 {
		t.Fatalf("PlaneBuilds = %d after second band plan, want 2", st.PlaneBuilds)
	}
}

// TestEngineConcurrentFixes hammers one shared engine from many
// goroutines with distinct snapshots and band plans. Run with -race this
// guards the plane cache, the scratch pools and the tiled fix path.
func TestEngineConcurrentFixes(t *testing.T) {
	d, err := testbed.Paper(46)
	if err != nil {
		t.Fatal(err)
	}
	e := paperEngine(t, d)
	full := d.Sounding(geom.Pt(0.7, 1.4))
	tags := []geom.Point{
		geom.Pt(0.7, 1.4), geom.Pt(-1.2, -0.8), geom.Pt(1.9, -2.2), geom.Pt(-2.1, 2.3),
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 4; n++ {
				var s *csi.Snapshot
				switch (w + n) % 3 {
				case 0:
					s = d.Fork(uint64(w*16 + n)).Sounding(tags[(w+n)%len(tags)])
				case 1: // band-subset plan: exercises the plane cache
					cut := 4 + 2*((w+n)%5)
					s = &csi.Snapshot{
						Bands:  full.Bands[:cut],
						Freqs:  full.Freqs[:cut],
						Tag:    full.Tag[:cut],
						Master: full.Master[:cut],
					}
				default: // degraded snapshot
					m := full.MaskedCopy()
					m.MaskMissing((w+n)%m.NumBands(), 1+(w+n)%3)
					s = m
				}
				if _, err := e.Locate(s); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
