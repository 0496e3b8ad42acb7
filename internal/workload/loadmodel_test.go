package workload

import (
	"math"
	"testing"
	"time"
)

func TestArrivalsExponentialShape(t *testing.T) {
	a, err := NewArrivals(1, 1000) // 1000/s -> 1ms mean gap
	if err != nil {
		t.Fatal(err)
	}
	const n = 50_000
	var sum time.Duration
	under := 0
	for i := 0; i < n; i++ {
		gap := a.Next()
		if gap < 0 {
			t.Fatalf("negative gap %v", gap)
		}
		sum += gap
		if gap < time.Millisecond {
			under++
		}
	}
	mean := sum / n
	if mean < 900*time.Microsecond || mean > 1100*time.Microsecond {
		t.Errorf("mean gap %v, want ~1ms", mean)
	}
	// Memoryless property: P(gap < mean) = 1 - 1/e ~ 0.632.
	frac := float64(under) / n
	if math.Abs(frac-0.632) > 0.02 {
		t.Errorf("P(gap < mean) = %.3f, want ~0.632 (exponential)", frac)
	}
}

func TestArrivalsDeterministicAndOrdered(t *testing.T) {
	a1, _ := NewArrivals(7, 50)
	a2, _ := NewArrivals(7, 50)
	for i := 0; i < 100; i++ {
		g1, g2 := a1.Next(), a2.Next()
		if g1 != g2 {
			t.Fatalf("gap %d differs across same-seed processes: %v vs %v", i, g1, g2)
		}
		if g1 < 0 {
			t.Fatalf("gap %d is negative: %v", i, g1)
		}
	}
}

func TestArrivalsRejectsBadRate(t *testing.T) {
	if _, err := NewArrivals(1, 0); err == nil {
		t.Error("rate 0 accepted")
	}
	if _, err := NewArrivals(1, -3); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestSessionsShape(t *testing.T) {
	s, err := NewSessions(3, 8, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50_000
	atOrBelowMedian, tail := 0, 0
	for i := 0; i < n; i++ {
		v := s.Next()
		if v < 1 {
			t.Fatalf("session length %d < 1", v)
		}
		if v <= 8 {
			atOrBelowMedian++
		}
		if v >= 40 { // ~2 sigma above the median in log space
			tail++
		}
	}
	if frac := float64(atOrBelowMedian) / n; math.Abs(frac-0.5) > 0.05 {
		t.Errorf("P(len <= median) = %.3f, want ~0.5", frac)
	}
	if tail == 0 {
		t.Error("no heavy-tail sessions in 50k draws; distribution lost its tail")
	}
}

func TestSessionsDeterministic(t *testing.T) {
	s1, _ := NewSessions(11, 5, 0.8)
	s2, _ := NewSessions(11, 5, 0.8)
	for i := 0; i < 1000; i++ {
		if a, b := s1.Next(), s2.Next(); a != b {
			t.Fatalf("draw %d differs across same-seed models: %d vs %d", i, a, b)
		}
	}
}

func TestSessionsRejectsBadParams(t *testing.T) {
	if _, err := NewSessions(1, 0, 0.8); err == nil {
		t.Error("median 0 accepted")
	}
	if _, err := NewSessions(1, 5, 0); err == nil {
		t.Error("sigma 0 accepted")
	}
}
