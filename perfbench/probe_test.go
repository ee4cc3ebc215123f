package main

import (
	"math"
	"testing"
	"time"
)

// TestSpeedProbeReadsSpeeds runs the probe beside a busy goroutine and
// checks that it samples, reads finite positive speeds between marks,
// and stops cleanly.
func TestSpeedProbeReadsSpeeds(t *testing.T) {
	p, err := startSpeedProbe()
	if err != nil {
		t.Fatal(err)
	}
	a := p.mark(selfCPU())
	deadline := time.Now().Add(10 * probeEvery)
	for time.Now().Before(deadline) {
	}
	b := p.mark(selfCPU())
	whole, compute := p.between(a, b, false), p.between(a, b, true)
	if err := p.close(); err != nil {
		t.Fatal(err)
	}
	if b.n <= a.n {
		t.Fatalf("no kernel time sampled in %s", 10*probeEvery)
	}
	for part, sp := range map[string]speeds{"whole kernel": whole, "compute part": compute} {
		for name, v := range map[string]float64{"cpu": sp.cpu, "wall": sp.wall} {
			if !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s speed %g, want finite and positive", part, name, v)
			}
		}
		if sp.wall > sp.cpu {
			t.Errorf("%s: wall-clock speed %g above CPU speed %g: the share of CPU time left cannot exceed 1", part, sp.wall, sp.cpu)
		}
	}
}
