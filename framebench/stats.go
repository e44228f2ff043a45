package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// percentile returns the exact nearest-rank p-th percentile (0 < p ≤ 100)
// of the raw samples: the smallest sample with at least p% of the samples
// at or below it. No bucketing, so two runs can only report the same value
// when they observed it. It returns NaN for an empty sample.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank(len(s), p)]
}

// rank is the 0-based index of the nearest-rank p-th percentile in a
// sorted sample of n.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// beyond counts the samples strictly above the p-th percentile's rank: a
// percentile is supported when at least ten samples lie beyond it.
func beyond(n int, p float64) int { return n - 1 - rank(n, p) }

// highestSupported returns the highest of the candidate percentiles that
// has at least ten samples beyond it in a sample of n (0 when none has).
func highestSupported(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 0
}

func median(samples []float64) float64 { return percentile(samples, 50) }

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var s float64
	for _, v := range samples {
		s += v
	}
	return s / float64(len(samples))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// schedule returns each sensor's send offsets from the start of the timed
// window. Sensors are staggered evenly across the period, and each send
// is jittered by up to a tenth of the period either way, drawn from seed:
// the same seed gives the same schedule. A fixed random phase per sensor
// would instead decide, for a whole run, how often two sensors' frames
// collide in the worker, and move latency and memory from seed to seed.
func schedule(seed int64, sensors int, period, window time.Duration) [][]time.Duration {
	rng := rand.New(rand.NewSource(seed))
	jitter := period / 10
	out := make([][]time.Duration, sensors)
	for i := range out {
		base := jitter + period*time.Duration(i)/time.Duration(sensors)
		for k := 0; ; k++ {
			t := base + time.Duration(k)*period + time.Duration(rng.Int63n(int64(2*jitter+1))) - jitter
			if t >= window {
				break
			}
			out[i] = append(out[i], t)
		}
	}
	return out
}

// ledgerEntry is one named layer's share of the mean client frame time.
type ledgerEntry struct {
	Name string
	Ms   float64
}

// ledger splits the mean client frame time into named layers; whatever
// they leave over is reported as unattributed time, never dropped.
type ledger struct {
	ClientMs float64
	Layers   []ledgerEntry
}

func (l *ledger) add(name string, v float64) { l.Layers = append(l.Layers, ledgerEntry{name, v}) }

// unattributed is the client time no layer accounts for. It is negative
// when layers measured from different vantage points overlap.
func (l *ledger) unattributed() float64 {
	rest := l.ClientMs
	for _, e := range l.Layers {
		rest -= e.Ms
	}
	return rest
}
