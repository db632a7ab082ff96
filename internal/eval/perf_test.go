package eval

import "testing"

func perfSuite(t *testing.T) *Suite {
	t.Helper()
	s, err := NewSuite(SuiteOptions{Seed: 11, Positions: 6})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMeasureFixes(t *testing.T) {
	s := perfSuite(t)
	r, err := s.MeasureFixes(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.NsPerFix <= 0 || r.FixesPerSec <= 0 {
		t.Fatalf("degenerate measurement: %+v", r)
	}
	if r.AllocsPerFix > 64 {
		t.Fatalf("fix path allocates too much: %.1f allocs/fix", r.AllocsPerFix)
	}
}

// TestSuiteKernelParity is the eval-level golden check: on the suite's
// own dataset, every cell of the production fix surface (at refinement
// strides 1) must lie within 1e-6 of the float64 oracle surface's
// maximum, so every figure the suite produces computes the paper's
// Eq. 17.
func TestSuiteKernelParity(t *testing.T) {
	s := perfSuite(t)
	worst, err := s.MaxKernelDivergence(4)
	if err != nil {
		t.Fatal(err)
	}
	if worst > 1e-6 {
		t.Fatalf("production kernel diverges from the oracle by %g of its maximum (limit 1e-6)", worst)
	}
	t.Logf("worst cell divergence %.2e of the oracle maximum", worst)
}
