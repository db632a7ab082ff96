package core

import (
	"math"
	"reflect"
	"testing"

	"bloc/internal/csi"
	"bloc/internal/geom"
	"bloc/internal/testbed"
)

// FuzzLocateOptsPrior drives the gate with arbitrary priors: NaN, ±Inf,
// negative or huge semi-axes and far-away centers. A fix must not panic;
// it either errors or returns a finite in-room estimate with
// TilesRefined ≤ TilesTotal, and every result the gate refused must
// equal the prior-free fix of the same snapshot.
func FuzzLocateOptsPrior(f *testing.F) {
	d, err := testbed.Paper(13)
	if err != nil {
		f.Fatal(err)
	}
	e, err := NewEngine(d.Anchors, DefaultConfig(d.Env.Room))
	if err != nil {
		f.Fatal(err)
	}
	snaps := []*csi.Snapshot{d.Sounding(geom.Pt(0.6, -1.0)), d.Sounding(geom.Pt(-1.8, 2.0))}
	free := make([]*Result, len(snaps))
	for i, s := range snaps {
		if free[i], err = e.Locate(s); err != nil {
			f.Fatal(err)
		}
	}

	f.Add(uint8(0), free[0].Estimate.X, free[0].Estimate.Y, 0.5, 0.5, 0.0)
	f.Add(uint8(1), free[1].Estimate.X, free[1].Estimate.Y, 2.0, 0.3, 1.2)
	f.Add(uint8(0), math.NaN(), 0.0, 1.0, 1.0, 0.0)
	f.Add(uint8(1), 0.0, 0.0, math.Inf(1), math.Inf(1), 0.0)
	f.Add(uint8(0), 0.0, 0.0, math.Inf(-1), math.NaN(), math.Inf(1))
	f.Add(uint8(1), 1e300, -1e300, 1e308, -1e308, 0.0)
	f.Add(uint8(0), math.Inf(1), math.Inf(-1), 0.5, 0.5, 0.7)
	f.Add(uint8(1), -40.0, 25.0, 0.2, 0.2, 0.0)
	f.Add(uint8(0), 0.6, -1.0, -3.0, 0.2, math.NaN())

	room := e.Config().Room
	f.Fuzz(func(t *testing.T, which uint8, cx, cy, semiMajor, semiMinor, theta float64) {
		i := int(which) % len(snaps)
		prior := &Prior{Center: geom.Pt(cx, cy), SemiMajor: semiMajor, SemiMinor: semiMinor, Theta: theta}
		res, err := e.LocateOpts(snaps[i], LocateOptions{Prior: prior})
		if err != nil {
			return
		}
		p := res.Estimate
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) || !room.Contains(p) {
			t.Fatalf("prior %+v: estimate %v is not a finite in-room point", *prior, p)
		}
		if res.TilesRefined < 0 || res.TilesRefined > res.TilesTotal {
			t.Fatalf("prior %+v: tiles %d/%d", *prior, res.TilesRefined, res.TilesTotal)
		}
		if res.Gated {
			return
		}
		if res.Fallback == "" {
			t.Fatalf("prior %+v: non-gated result without a fallback reason", *prior)
		}
		if res.Estimate != free[i].Estimate || !reflect.DeepEqual(res.Candidates, free[i].Candidates) {
			t.Fatalf("prior %+v: %q fallback %v (%d candidates) != prior-free fix %v (%d candidates)",
				*prior, res.Fallback, res.Estimate, len(res.Candidates), free[i].Estimate, len(free[i].Candidates))
		}
	})
}
