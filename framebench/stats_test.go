package main

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestPercentileMatchesSortedOracle checks the exact nearest-rank
// percentile against a direct reading of the sorted sample.
func TestPercentileMatchesSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 7, 20, 99, 100, 240} {
		s := make([]float64, n)
		for i := range s {
			s[i] = rng.ExpFloat64() * 100
		}
		sorted := append([]float64(nil), s...)
		sort.Float64s(sorted)
		for _, p := range []float64{1, 25, 50, 90, 95, 99, 100} {
			// The smallest value with at least p% of the sample at or
			// below it.
			var want float64
			for _, v := range sorted {
				at := 0
				for _, u := range sorted {
					if u <= v {
						at++
					}
				}
				if float64(at) >= p/100*float64(n)-1e-9 {
					want = v
					break
				}
			}
			if got := percentile(s, p); got != want {
				t.Errorf("n=%d p%g = %v, want %v", n, p, got, want)
			}
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample is not NaN")
	}
}

func TestPercentileLeavesInputUnsorted(t *testing.T) {
	s := []float64{3, 1, 2}
	percentile(s, 50)
	if !reflect.DeepEqual(s, []float64{3, 1, 2}) {
		t.Errorf("input reordered to %v", s)
	}
}

func TestHighestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10, 0}, {11, 0}, {20, 50}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {20000, 99.9},
	} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := highestSupported(c.n); p > 0 && beyond(c.n, p) < 10 {
			t.Errorf("n=%d: p%g has only %d samples beyond it", c.n, p, beyond(c.n, p))
		}
	}
}

func TestScheduleIsDeterministicPerSeed(t *testing.T) {
	period, window := time.Second/3, 38*time.Second
	a := schedule(7, 2, period, window)
	if b := schedule(7, 2, period, window); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := schedule(8, 2, period, window); reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	for i, offs := range a {
		if len(offs) < 113 || len(offs) > 114 {
			t.Errorf("sensor %d: %d sends in %v at %v", i, len(offs), window, period)
		}
		for j, off := range offs {
			if off < 0 || off >= window {
				t.Fatalf("sensor %d send %d at %v, outside the window", i, j, off)
			}
			// Sensor i's k-th send stays within a tenth of a period of
			// its staggered slot.
			slot := period/10 + period*time.Duration(i)/2 + time.Duration(j)*period
			if d := off - slot; d < -period/10 || d > period/10 {
				t.Fatalf("sensor %d send %d is %v off its slot", i, j, d)
			}
		}
	}
}

func TestLedgerSumsToClientTime(t *testing.T) {
	l := ledger{ClientMs: 200}
	for _, v := range []float64{1.5, 4, 20, 60.25, 80} {
		l.add("layer", v)
	}
	if got := l.unattributed(); got != 34.25 {
		t.Errorf("unattributed = %v, want 34.25", got)
	}
	sum := l.unattributed()
	for _, e := range l.Layers {
		sum += e.Ms
	}
	if sum != l.ClientMs {
		t.Errorf("layers + unattributed = %v, want client %v", sum, l.ClientMs)
	}
	// Overlapping layers leave a negative remainder rather than a clamp.
	l.add("overlap", 50)
	if got := l.unattributed(); got != -15.75 {
		t.Errorf("unattributed after overlap = %v, want -15.75", got)
	}
}

func TestDriveIndexGoesForthAndBack(t *testing.T) {
	prev := driveIndex(0)
	for k := 1; k < 5*replayDrive; k++ {
		i := driveIndex(k)
		if i < 0 || i >= replayDrive {
			t.Fatalf("driveIndex(%d) = %d, outside the drive", k, i)
		}
		if d := i - prev; d != 1 && d != -1 {
			t.Fatalf("frames %d and %d are %d drive steps apart", k-1, k, d)
		}
		prev = i
	}
}

// TestSlamSpanEndsInRevisitLap checks slam-circuit's framing for a timed
// and a traced pass: the window ends revisitTimed frames after the first
// candidate-proposing frame, and the session drives half the revisit lap.
func TestSlamSpanEndsInRevisitLap(t *testing.T) {
	w := workloads["slam-circuit"]
	for _, timed := range []int{32, 16} {
		warm, total := w.span(timed)
		if end := warm + timed; end != slamPerLap-2+revisitTimed {
			t.Errorf("%d timed frames: window ends at frame %d", timed, end)
		}
		if total != slamPerLap+slamPerLap/2 {
			t.Errorf("%d timed frames: %d frames in all", timed, total)
		}
	}
	if warm, total := workloads["sensor-stream"].span(100); warm != warmup || total != warmup+100 {
		t.Errorf("sensor-stream span = %d, %d", warm, total)
	}
}

func TestPromSamples(t *testing.T) {
	m, err := promSamples(strings.NewReader(`# TYPE tigris_stage_latency_seconds histogram
tigris_stage_latency_seconds_bucket{stage="frame",le="0.1"} 3
tigris_stage_latency_seconds_sum{stage="frame"} 0.75
tigris_stage_latency_seconds_count{stage="frame"} 5
tigris_frames_pushed_total 12
`))
	if err != nil {
		t.Fatal(err)
	}
	before := map[string]float64{`tigris_stage_latency_seconds_sum{stage="frame"}`: 0.25, `tigris_stage_latency_seconds_count{stage="frame"}`: 1}
	sum, n := histDelta(before, m, "tigris_stage_latency_seconds", "frame")
	if sum != 500 || n != 4 {
		t.Errorf("histDelta = %v ms over %v, want 500 over 4", sum, n)
	}
	if m["tigris_frames_pushed_total"] != 12 {
		t.Errorf("counter = %v", m["tigris_frames_pushed_total"])
	}
}
