package core

import (
	"testing"

	"bloc/internal/dsp"
	"bloc/internal/geom"
	"bloc/internal/testbed"
)

// Micro-benchmarks for the likelihood kernels, production vs reference.
// BenchmarkLocateSingleFix (package bloc) measures the end-to-end fix;
// these isolate the stages of the production kernel a fix runs.

func benchFixture(b *testing.B) (*Engine, *Alpha) {
	b.Helper()
	d, err := testbed.Paper(7)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(d.Anchors, DefaultConfig(d.Env.Room))
	if err != nil {
		b.Fatal(err)
	}
	a, err := Correct(d.Sounding(geom.Pt(0.8, -1.2)))
	if err != nil {
		b.Fatal(err)
	}
	return e, a
}

// BenchmarkRefineAllTiles times the production likelihood of a
// full-grid fix: the float32 polar kernel and tiled projection of every
// anchor with every tile selected, at the default refinement strides.
func BenchmarkRefineAllTiles(b *testing.B) {
	e, a := benchFixture(b)
	ps, gt := e.planesFor(a.Freqs), e.gatedFor(a.Ref)
	r := e.startRun(a)
	combined := dsp.NewGrid(e.nx, e.ny)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(combined.Data)
		e.refine(ps, gt, a, r, true, combined)
	}
}

// BenchmarkCoarsePass times the decimated pass a tracked fix runs before
// selecting tiles.
func BenchmarkCoarsePass(b *testing.B) {
	e, a := benchFixture(b)
	ps, gt := e.planesFor(a.Freqs), e.gatedFor(a.Ref)
	r := e.startRun(a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.coarsePass(ps, gt, a, r)
	}
}

func BenchmarkPolarLikelihoodReference(b *testing.B) {
	e, a := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.referencePolarLikelihood(a, 1)
	}
}

func BenchmarkPolarToXYReference(b *testing.B) {
	e, a := benchFixture(b)
	polar := e.referencePolarLikelihood(a, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.referencePolarToXY(polar, 1, 0)
	}
}

// BenchmarkGatedFix measures the steady-state tracked fix: a settled
// prior, warm pools and tables. BenchmarkFullGridFix is the same
// snapshot with every tile selected — the pair is the headline speedup
// of the prior-gated search.
func BenchmarkGatedFix(b *testing.B) {
	d, err := testbed.Paper(1)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(d.Anchors, DefaultConfig(d.Env.Room))
	if err != nil {
		b.Fatal(err)
	}
	snap := d.Sounding(geom.Pt(1.2, 0.8))
	full, err := e.Locate(snap)
	if err != nil {
		b.Fatal(err)
	}
	prior := tightPrior(full.Estimate)
	res, err := e.LocateOpts(snap, LocateOptions{Prior: prior})
	if err != nil {
		b.Fatal(err)
	}
	if !res.Gated {
		b.Fatalf("warm-up fix fell back: %q", res.Fallback)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := e.LocateOpts(snap, LocateOptions{Prior: prior})
		if err != nil {
			b.Fatal(err)
		}
		if !r.Gated {
			b.Fatalf("fix fell back: %q", r.Fallback)
		}
	}
}

func BenchmarkFullGridFix(b *testing.B) {
	d, err := testbed.Paper(1)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(d.Anchors, DefaultConfig(d.Env.Room))
	if err != nil {
		b.Fatal(err)
	}
	snap := d.Sounding(geom.Pt(1.2, 0.8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Locate(snap); err != nil {
			b.Fatal(err)
		}
	}
}
