package perfmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeComposition(t *testing.T) {
	m := Machine{Alpha: 1, Beta: 10, GammaVertex: 100, GammaEdge: 1000, Sync: 10000}
	p := Profile{VertexOps: 1, EdgeOps: 2, Msgs: 3, Bytes: 4, Epochs: 5}
	want := 100.0 + 2000 + 3 + 40 + 50000
	if got := m.Time(p); got != want {
		t.Fatalf("Time = %g, want %g", got, want)
	}
}

func TestRunTimeIsMax(t *testing.T) {
	m := BlueGeneP()
	ranks := []Profile{
		{EdgeOps: 100},
		{EdgeOps: 1000, Msgs: 10},
		{EdgeOps: 10},
	}
	if got, want := m.RunTime(ranks), m.Time(ranks[1]); got != want {
		t.Fatalf("RunTime = %g, want slowest rank %g", got, want)
	}
	if m.RunTime(nil) != 0 {
		t.Fatal("empty RunTime != 0")
	}
}

func TestBlueGenePSane(t *testing.T) {
	m := BlueGeneP()
	if m.Alpha <= 0 || m.Beta <= 0 || m.GammaEdge <= 0 || m.GammaVertex <= 0 || m.Sync <= 0 {
		t.Fatalf("non-positive coefficient in %+v", m)
	}
	// Latency must dwarf per-byte cost; compute per op must be nanoseconds.
	if m.Alpha < 100*m.Beta {
		t.Error("alpha suspiciously close to beta")
	}
	if m.GammaEdge > 1e-6 {
		t.Error("per-edge compute cost above a microsecond")
	}
}

func TestCalibrateReproducesMeasurement(t *testing.T) {
	m := BlueGeneP()
	p := Profile{VertexOps: 1e6, EdgeOps: 4e6, Msgs: 100, Bytes: 1e5, Epochs: 10}
	measured := 0.5
	cal, err := m.Calibrate(p, measured)
	if err != nil {
		t.Fatal(err)
	}
	if got := cal.Time(p); math.Abs(got-measured) > 1e-9 {
		t.Fatalf("calibrated Time = %g, want %g", got, measured)
	}
	// Communication coefficients untouched.
	if cal.Alpha != m.Alpha || cal.Beta != m.Beta || cal.Sync != m.Sync {
		t.Fatal("calibration changed communication coefficients")
	}
}

func TestCalibrateCommDominated(t *testing.T) {
	m := BlueGeneP()
	p := Profile{VertexOps: 1, EdgeOps: 1, Msgs: 1e6, Bytes: 1e9}
	// Measured time below the comm floor: compute scale left untouched.
	cal, err := m.Calibrate(p, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if cal.GammaEdge != m.GammaEdge {
		t.Fatal("comm-dominated calibration modified gamma")
	}
}

func TestCalibrateNoCompute(t *testing.T) {
	if _, err := BlueGeneP().Calibrate(Profile{Msgs: 5}, 1); err == nil {
		t.Fatal("accepted profile without compute")
	}
}

// Property: Time is monotone in every profile field.
func TestQuickTimeMonotone(t *testing.T) {
	m := BlueGeneP()
	f := func(v, e, mm, b, ep uint32) bool {
		p := Profile{VertexOps: int64(v), EdgeOps: int64(e), Msgs: int64(mm), Bytes: int64(b), Epochs: int64(ep)}
		bigger := p
		bigger.EdgeOps++
		bigger.Msgs++
		return m.Time(bigger) > m.Time(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
