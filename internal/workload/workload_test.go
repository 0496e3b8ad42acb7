package workload

import (
	"testing"
)

func TestBrowsingDeterministicPerSeed(t *testing.T) {
	a, err := NewBrowsing(5, 50, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBrowsing(5, 50, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if a.Next(3) != b.Next(3) {
			t.Fatal("same seed diverged")
		}
	}
}

func TestBrowsingIsHeavyTailed(t *testing.T) {
	b, err := NewBrowsing(7, 100, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const visits = 5000
	for i := 0; i < visits; i++ {
		counts[b.Next(0)]++
	}
	// The single most popular name should carry a large share; the
	// distinct set should be much smaller than the visit count.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < visits/10 {
		t.Errorf("top name has %d of %d visits; distribution not heavy-tailed", max, visits)
	}
	if len(counts) >= visits/2 {
		t.Errorf("%d distinct names for %d visits; no repetition", len(counts), visits)
	}
}

func TestBrowsingUserAffinity(t *testing.T) {
	b, err := NewBrowsing(7, 100, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	// Two different users' heavy hitters differ (affinity rotation).
	top := func(user int) string {
		counts := map[string]int{}
		for i := 0; i < 2000; i++ {
			counts[b.Next(user)]++
		}
		best, bestN := "", 0
		for n, c := range counts {
			if c > bestN {
				best, bestN = n, c
			}
		}
		return best
	}
	if top(0) == top(5) {
		t.Error("different users share the same top site; affinity rotation broken")
	}
}

func TestBrowsingErrors(t *testing.T) {
	if _, err := NewBrowsing(1, 0, 1.2); err == nil {
		t.Error("zero names accepted")
	}
	if _, err := NewBrowsing(1, 10, 1.0); err == nil {
		t.Error("skew 1.0 accepted")
	}
}

func TestStreamAndDistinct(t *testing.T) {
	b, err := NewBrowsing(3, 30, 1.4)
	if err != nil {
		t.Fatal(err)
	}
	stream := b.Stream(2, 50)
	if len(stream) != 50 {
		t.Fatalf("stream length = %d", len(stream))
	}
	d := map[string]bool{}
	for _, name := range stream {
		d[name] = true
	}
	if len(d) < 2 {
		t.Errorf("distinct = %d, want a mix of names", len(d))
	}
}

func TestTelemetryBoundsAndSkew(t *testing.T) {
	tl := NewTelemetry(9, 15)
	counts := map[uint64]int{}
	for i := 0; i < 3000; i++ {
		v := tl.Next()
		if v > 15 {
			t.Fatalf("value %d out of range", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[15] {
		t.Errorf("distribution not right-skewed: P(0)=%d P(15)=%d", counts[0], counts[15])
	}
}
