package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"tigris/internal/geom"
	"tigris/internal/obs"
	"tigris/internal/posegraph"
	"tigris/internal/registration"
	"tigris/internal/search"
	"tigris/internal/stream"
	"tigris/internal/synth"
)

// replayDrive is the number of frames rendered for replay-batch, more
// than a run commits, so every pair is a distinct input. Should a run
// get further, it drives the street back (a reversing vehicle, still 1 m
// per frame) rather than stop.
const replayDrive = 260

// replayLimit is the push-to-commit latency an in-process frame must
// meet to count as on time.
const replayLimit = 2 * time.Second

// driveIndex maps the k-th pushed frame to its rendered frame.
func driveIndex(k int) int {
	period := 2 * (replayDrive - 1)
	m := k % period
	if m < replayDrive {
		return m
	}
	return period - m
}

// replayConfig is replay-batch's pipeline: DP4 on the paper's two-stage
// tree with leader/follower approximate search.
func replayConfig() (registration.PipelineConfig, error) {
	return pipelineConfig("DP4", search.BackendTwoStageApprox)
}

// replaySession is one in-process engine with the flight recorder the
// service attaches to every session; its whole-frame spans give each
// frame's commit time.
type replaySession struct {
	eng    *stream.Engine
	flight *obs.FlightRecorder
	pushAt []time.Time
}

// newReplaySession creates the engine and pushes the warm-up pair.
func newReplaySession(cfg registration.PipelineConfig, seq *synth.Sequence, rec *obs.Recorder, o *ops) *replaySession {
	s := &replaySession{flight: obs.NewFlightRecorder(1<<16, 1)}
	s.eng = stream.New(stream.Config{Pipeline: cfg, Pipelined: true, Obs: rec, Flight: s.flight})
	for k := 0; k < warmup; k++ {
		s.push(seq, k, o)
	}
	s.eng.Drain()
	return s
}

func (s *replaySession) push(seq *synth.Sequence, k int, o *ops) bool {
	o.attempted.Add(1)
	s.pushAt = append(s.pushAt, time.Now())
	if _, err := s.eng.Push(seq.Frames[driveIndex(k)]); err != nil {
		o.fail("replay push %d: %v", k, err)
		return false
	}
	return true
}

// replayPass is what one closed-loop pass observed.
type replayPass struct {
	lat                []float64
	onTime, frames     int
	start, end         time.Time
	cpuMs              float64
	rssStartKB, rssEnd float64
	rssKB              []float64
	traj               stream.Trajectory
}

// run pushes frames back to back for window, then waits for every one
// to commit.
func (s *replaySession) run(seq *synth.Sequence, window time.Duration, o *ops, spans *spanLog) (*replayPass, error) {
	p := &replayPass{}
	var err error
	if p.rssStartKB, err = procStatusKB(0, "VmRSS"); err != nil {
		return nil, err
	}
	cpu0 := selfCPUMs()
	rss := sampleRSS(os.Getpid())
	p.start = time.Now()
	for k := warmup; time.Since(p.start) < window; k++ {
		if !s.push(seq, k, o) {
			break
		}
	}
	s.eng.Drain()
	p.end = time.Now()
	p.rssKB = rss.end()
	p.cpuMs = selfCPUMs() - cpu0
	if p.rssEnd, err = procStatusKB(0, "VmRSS"); err != nil {
		return nil, err
	}
	p.traj = s.eng.Trajectory()

	commit := make(map[int]time.Time)
	for _, ev := range s.flight.Events() {
		if ev.Stage == obs.StageFrame && ev.Parent == 0 {
			commit[int(ev.Frame)] = time.Unix(0, ev.Start+ev.Dur)
		}
	}
	o.attempted.Add(1) // the trajectory read-back
	if p.traj.Len() != len(s.pushAt) {
		o.fail("replay: trajectory has %d frames, pushed %d", p.traj.Len(), len(s.pushAt))
	}
	for k := warmup; k < p.traj.Len(); k++ {
		if !wireOf(p.traj.Poses[k]).finite() {
			o.fail("replay frame %d: non-finite pose", k)
			continue
		}
		c, ok := commit[k]
		if !ok {
			return nil, fmt.Errorf("replay frame %d: no frame span (flight recorder too small)", k)
		}
		l := c.Sub(s.pushAt[k])
		p.lat = append(p.lat, ms(l))
		if l <= replayLimit {
			p.onTime++
		}
		p.frames++
		root := spans.add(0, k, "frame", s.pushAt[k], l)
		spans.add(root, k, "stream.Push", s.pushAt[k], 0)
	}
	return p, nil
}

// accuracy scores the pass's pairs and its odometry ATE against the
// rendered drive's ground truth.
func (p *replayPass) accuracy(seq *synth.Sequence) (terr, ate []float64) {
	truth := make([]geom.Transform, p.traj.Len())
	for k := range truth {
		truth[k] = seq.Poses[driveIndex(k)]
		if k > 0 {
			gt := truth[k-1].Inverse().Compose(truth[k])
			terr = append(terr, registration.EvaluatePair(p.traj.Frames[k].Delta, gt).TranslationalPct)
		}
	}
	return terr, segmentATE(p.traj.Poses, truth)
}

// replayOptNodes is the pose-graph size replay-batch times its solve at.
// The session's own length follows its throughput, and the dense solve
// grows as N^2.3, so timing the whole session would fold throughput
// noise into solve time.
const replayOptNodes = 200

// replayOptReads is how many times replay-batch times that solve; one
// takes a few milliseconds.
const replayOptReads = 30

// optimize times the engine's pose-graph solve over the whole session.
func (s *replaySession) optimize(o *ops) posegraph.Result {
	o.attempted.Add(1)
	poses, res, err := s.eng.OptimizedPoses(posegraph.Options{})
	if err != nil {
		o.fail("replay optimize: %v", err)
	} else if !allFinite(wireAll(poses)) {
		o.fail("replay optimize: non-finite pose")
	}
	return res
}

// optimizeFixed times the pose-graph solve over the session's first
// replayOptNodes poses, after a collection so earlier garbage is not
// charged to it.
func optimizeFixed(traj stream.Trajectory, o *ops) float64 {
	n := min(traj.Len(), replayOptNodes)
	deltas := make([]geom.Transform, 0, n)
	for _, fr := range traj.Frames[1:n] {
		deltas = append(deltas, fr.Delta)
	}
	g := posegraph.FromOdometry(traj.Poses[0], deltas)
	runtime.GC()
	o.attempted.Add(1)
	t0 := time.Now()
	poses, _, err := g.Optimize(posegraph.Options{})
	d := time.Since(t0)
	if err != nil {
		o.fail("replay optimize: %v", err)
	} else if !allFinite(wireAll(poses)) {
		o.fail("replay optimize: non-finite pose")
	}
	return ms(d)
}

func wireAll(ts []geom.Transform) []wireTransform {
	out := make([]wireTransform, len(ts))
	for i, t := range ts {
		out[i] = wireOf(t)
	}
	return out
}
