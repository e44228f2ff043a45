package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sync"
	"time"

	"tigris/internal/cloud"
	"tigris/internal/geom"
	"tigris/internal/synth"
)

// workload is one named traffic mix. Rates and latency limits are fixed
// here and repeated in BENCHMARK.json, so every commit is offered the
// same load and judged against the same limit.
type workload struct {
	name string
	// served workloads run against a separately launched gateway and
	// worker; the other runs the streaming engine in this process.
	served bool
	// sensors is the number of concurrent sessions (served) pushing one
	// frame every period each, open loop.
	sensors int
	period  time.Duration
	// limit is the frame latency a served frame must meet to count as on
	// time (measured from its scheduled send time).
	limit time.Duration
	// readEvery issues a `?optimized=1` trajectory read half a period
	// after every readEvery-th frame send, on the second connection (0:
	// none during the run). Tied to the frame schedule, a read meets the
	// same stage of every frame (a verification still running, or an
	// idle worker) instead of whatever a free-running clock lands on.
	readEvery int
	// designPoint is the sessions' design point, on the canonical
	// KD-tree (replay-batch picks its own pipeline, replayConfig).
	designPoint string
	// perLap is the circuit's frames per lap; nonzero enables the
	// session's loop-closure stage.
	perLap int
	// seq builds sensor i's input sequence of n frames from the seed.
	seq func(seed int64, i, n int) synth.SequenceConfig
}

// Per-pair translational error above this ceiling (in % of the distance
// travelled) marks a registration as failed rather than imprecise.
const badPairPct = 50

// warmup frames are pushed closed loop before a run's timed window, so
// first-frame costs (heap growth, first index builds) stay out of it.
const warmup = 2

// revisitTimed is how many frames into the revisit lap slam-circuit's timed
// window ends. A revisit frame verifies loop candidates and costs several
// times a plain odometry frame, so a timed run's 38 frames hold 22 plain
// ones: p50 falls among the plain frames and p95 among the verifications,
// instead of wherever a mix near half and half happens to fall.
const revisitTimed = 16

// span returns how many frames a session pushes closed loop before its
// timed frames, and how many it pushes in all, when timed frames fall in
// the window. slam-circuit warms up with as much of its first lap as puts
// the window's end revisitTimed frames into the revisit lap, and pushes
// untimed frames after the window until it has driven half the revisit
// lap, the least the closure check (checkLaps) needs.
func (w *workload) span(timed int) (warm, total int) {
	if w.perLap == 0 {
		return warmup, warmup + timed
	}
	end := w.perLap - 2 + revisitTimed // frame perLap-2 proposes the first candidates
	warm = max(warmup, end-timed)
	return warm, max(warm+timed, w.perLap+w.perLap/2)
}

// finalReads is how many times the traced run of a workload without
// optimized reads during its window times the optimized read of each
// finished session.
const finalReads = 10

// setups is how many times a run repeats its set-up; setup_s is their
// median.
const setups = 9

// slamPerLap is the circuit's frames per lap (tigris-slam's default).
const slamPerLap = 40

// Each workload drives a fixed street (scene seed fixed per sensor), like a
// recorded test drive; the run seed varies the send schedule and, except on
// slam-circuit, the sensor noise. Seeds then differ in their inputs without each run sampling a
// different city, whose layout alone would move accuracy and latency by
// more than the bounds the benchmark holds changes to.
// createBody is the session config posted to POST /v1/sessions.
func (w *workload) createBody() []byte {
	req := map[string]any{"design_point": w.designPoint}
	if w.perLap > 0 {
		// The loop stage runs as tigris-slam runs it: a candidate must be
		// a lap, less two frames, older, every revisit frame verifies up to
		// two candidates (cooldown 1). With only the best-ranked candidate,
		// some noise draws propose the wrong frame all lap long and close
		// no loop at all.
		req["loop"] = map[string]any{
			"enabled": true, "backend": "twostage",
			"min_separation": w.perLap - 2, "max_candidates": 2, "cooldown": 1,
		}
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a map of strings and numbers always encodes
	}
	return b
}

func noiseSeed(seed int64, i int) int64 { return seed*1000 + int64(i) + 1 }

var workloads = map[string]*workload{
	"sensor-stream": {
		name:        "sensor-stream",
		served:      true,
		sensors:     2,
		period:      time.Second / 3,
		limit:       time.Second,
		designPoint: "DP5",
		seq: func(seed int64, i, n int) synth.SequenceConfig {
			// The street covers the whole drive at 1 m/frame.
			return synth.SequenceConfig{
				Scene:     synth.SceneConfig{Seed: 101 + int64(i), Length: float64(n) + 30},
				Lidar:     synth.LidarConfig{Beams: 24, AzimuthSteps: 450, Seed: noiseSeed(seed, i)},
				NumFrames: n,
			}
		},
	},
	"slam-circuit": {
		name:        "slam-circuit",
		served:      true,
		sensors:     1,
		period:      time.Second,
		limit:       2 * time.Second,
		readEvery:   2,
		designPoint: "DP7",
		perLap:      slamPerLap,
		// The circuit is a fixed recording: scene and sensor noise both
		// come from seed 201, as tigris-slam seeds both from one flag, and
		// the run seed varies only the send schedule. Which closures a
		// noise draw accepts sets how many verifications a revisit frame
		// runs, and with the noise drawn per seed that moved CPU per frame
		// and p95 by up to a third between seeds.
		seq: func(_ int64, _, n int) synth.SequenceConfig {
			return synth.SequenceConfig{
				Scene:      synth.SceneConfig{Seed: 201, Length: 120},
				Lidar:      synth.LidarConfig{Beams: 16, AzimuthSteps: 300, Seed: 201},
				NumFrames:  n,
				Trajectory: synth.CircuitTrajectory{Radius: 3, FramesPerLap: slamPerLap},
			}
		},
	},
	"replay-batch": {
		name: "replay-batch",
		seq: func(seed int64, i, n int) synth.SequenceConfig {
			c := synth.EvalSequenceConfig(n, 301)
			c.Scene.Length = float64(n) + 20
			c.Lidar.Seed = noiseSeed(seed, i)
			return c
		},
	},
}

// render generates a sequence like synth.GenerateSequence, scanning the
// frames on every CPU; Lidar.Scan only reads shared state.
func render(cfg synth.SequenceConfig) *synth.Sequence {
	traj := cfg.Trajectory
	if traj == nil {
		traj = synth.DrivingTrajectory{}
	}
	lidar := synth.NewLidar(synth.GenerateScene(cfg.Scene), cfg.Lidar)
	seq := &synth.Sequence{
		Frames: make([]*cloud.Cloud, cfg.NumFrames),
		Poses:  make([]geom.Transform, cfg.NumFrames),
	}
	for i := range seq.Poses {
		seq.Poses[i] = traj.Pose(i)
	}
	parallelFor(cfg.NumFrames, func(i int) { seq.Frames[i] = lidar.Scan(seq.Poses[i], i) })
	return seq
}

// encode renders every frame in the service's wire format.
func encode(frames []*cloud.Cloud) ([][]byte, error) {
	out := make([][]byte, len(frames))
	errs := make([]error, len(frames))
	parallelFor(len(frames), func(i int) {
		var buf bytes.Buffer
		errs[i] = cloud.Write(&buf, frames[i])
		out[i] = buf.Bytes()
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// parallelFor runs fn(0..n-1) on one goroutine per CPU and waits.
func parallelFor(n int, fn func(i int)) {
	var next sync.Mutex
	i := 0
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				k := i
				i++
				next.Unlock()
				if k >= n {
					return
				}
				fn(k)
			}
		}()
	}
	wg.Wait()
}
