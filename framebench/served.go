package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"tigris/internal/geom"
	"tigris/internal/posegraph"
	"tigris/internal/registration"
	"tigris/internal/synth"
)

// fleet is the system under test for the served workloads: one
// tigris-gateway fronting one tigris-serve worker. One worker, because a
// second would only oversubscribe a two-CPU host.
type fleet struct {
	worker, gateway *proc
}

func launchFleet(binDir, logDir string) (*fleet, error) {
	w, err := startProc(filepath.Join(binDir, "tigris-serve"), filepath.Join(logDir, "worker.log"))
	if err != nil {
		return nil, err
	}
	g, err := startProc(filepath.Join(binDir, "tigris-gateway"), filepath.Join(logDir, "gateway.log"), "-workers", w.url)
	if err != nil {
		w.stop()
		return nil, err
	}
	return &fleet{worker: w, gateway: g}, nil
}

func (f *fleet) stop() {
	f.gateway.stop()
	f.worker.stop()
}

// cpuMs is the CPU both server processes have used so far.
func (f *fleet) cpuMs() (float64, error) {
	a, err := cpuMs(f.worker.cmd.Process.Pid)
	if err != nil {
		return 0, err
	}
	b, err := cpuMs(f.gateway.cmd.Process.Pid)
	return a + b, err
}

// sensorInput is one sensor's rendered drive.
type sensorInput struct {
	seq    *synth.Sequence
	frames [][]byte
}

// pushRec is the client's record of one frame push.
type pushRec struct {
	timed             bool
	ok                bool
	sched, start, end time.Time
	reply             pushReply
}

// servedSession is one session of a pass.
type servedSession struct {
	id     string
	in     *sensorInput
	pushes []pushRec
}

// passResult is what one pass over the workload observed.
type passResult struct {
	sessions []*servedSession
	// Timed frames: latency from scheduled send, client round trip and
	// generator lag, in ms, for committed frames.
	lat, rtt, lag, wallMs             []float64
	timedAttempted, onTime, committed int
	firstSched, lastRecv              time.Time
	optLat                            []float64 // ?optimized=1 read latencies
	cpuMs, genCPUMs                   float64   // system under test, generator
	rssStartKB, rssEndKB              float64   // worker VmRSS around the window
	rssKB                             []float64 // worker VmRSS sampled during the window
	before, after, gwBefore, gwAfter  map[string]float64
	final                             []*trajReply // per session, read after the window
	loops                             *loopsReply  // slam-circuit: after the window
}

func createSessions(c *client, w *workload, inputs []*sensorInput) ([]*servedSession, error) {
	out := make([]*servedSession, len(inputs))
	for i, in := range inputs {
		var created struct {
			ID string `json:"id"`
		}
		if err := c.do("POST", "/v1/sessions", w.createBody(), 201, &created); err != nil {
			return nil, err
		}
		out[i] = &servedSession{id: created.ID, in: in, pushes: make([]pushRec, len(in.frames))}
	}
	return out, nil
}

func deleteSessions(c *client, sess []*servedSession) {
	for _, s := range sess {
		_ = c.do("DELETE", "/v1/sessions/"+s.id, nil, 200, nil)
	}
}

// push sends frame k of the session and checks the returned pose.
func (s *servedSession) push(c *client, k int, o *ops) {
	r := &s.pushes[k]
	r.start = time.Now()
	err := c.do("POST", fmt.Sprintf("/v1/sessions/%s/frames?wait=1", s.id), s.in.frames[k], 202, &r.reply)
	r.end = time.Now()
	if err != nil {
		return
	}
	switch {
	case r.reply.Frame != k:
		o.fail("session %s: frame %d answered as frame %d", s.id, k, r.reply.Frame)
	case r.reply.Pose == nil || r.reply.Delta == nil:
		o.fail("session %s frame %d: no pose in ?wait=1 answer", s.id, k)
	case !r.reply.Pose.finite() || !r.reply.Delta.finite():
		o.fail("session %s frame %d: non-finite pose", s.id, k)
	default:
		r.ok = true
	}
}

// runPass drives one pass: warm-up pushes, then the open-loop timed
// window, then the untimed frames after it and the read-back checks.
func runPass(w *workload, f *fleet, c *client, sess []*servedSession, sched [][]time.Duration, window time.Duration, o *ops, spans *spanLog) (*passResult, error) {
	res := &passResult{sessions: sess}
	warm := make([]int, len(sess))
	for i, s := range sess {
		warm[i], _ = w.span(len(sched[i]))
		for k := 0; k < warm[i]; k++ {
			s.push(c, k, o)
		}
	}

	var err error
	if spans != nil {
		if res.before, err = scrape(c.http, f.worker.url); err != nil {
			return nil, err
		}
		if res.gwBefore, err = scrape(c.http, f.gateway.url); err != nil {
			return nil, err
		}
	}
	pid := f.worker.cmd.Process.Pid
	if res.rssStartKB, err = procStatusKB(pid, "VmRSS"); err != nil {
		return nil, err
	}
	cpu0, err := f.cpuMs()
	if err != nil {
		return nil, err
	}
	gen0 := selfCPUMs()
	rss := sampleRSS(pid)

	t0 := time.Now().Add(20 * time.Millisecond)
	res.firstSched = t0.Add(window)
	var wg sync.WaitGroup
	for i, s := range sess {
		if len(sched[i]) > 0 && t0.Add(sched[i][0]).Before(res.firstSched) {
			res.firstSched = t0.Add(sched[i][0])
		}
		wg.Add(1)
		go func(s *servedSession, warm int, offs []time.Duration) {
			defer wg.Done()
			for j, off := range offs {
				k := warm + j
				due := t0.Add(off)
				time.Sleep(time.Until(due))
				s.pushes[k].timed = true
				s.pushes[k].sched = due
				s.push(c, k, o)
				r := &s.pushes[k]
				root := spans.add(0, k, "frame", due, r.end.Sub(due))
				spans.add(root, k, "gen.send_lag", due, r.start.Sub(due))
				spans.add(root, k, "http.push", r.start, r.end.Sub(r.start))
			}
		}(s, warm[i], sched[i])
	}
	var optMu sync.Mutex
	if w.readEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := w.readEvery - 1; j < len(sched[0]); j += w.readEvery {
				due := t0.Add(sched[0][j] + w.period/2)
				time.Sleep(time.Until(due))
				start := time.Now()
				var tr trajReply
				err := c.do("GET", "/v1/sessions/"+sess[0].id+"/trajectory?optimized=1", nil, 200, &tr)
				end := time.Now()
				spans.add(0, -1, "http.optimized_read", start, end.Sub(start))
				if err != nil {
					continue
				}
				if len(tr.Optimized) != tr.Frames || !allFinite(tr.Optimized) {
					o.fail("optimized read: %d poses for %d frames or non-finite", len(tr.Optimized), tr.Frames)
					continue
				}
				optMu.Lock()
				res.optLat = append(res.optLat, ms(end.Sub(due)))
				optMu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.rssKB = rss.end()

	cpu1, err := f.cpuMs()
	if err != nil {
		return nil, err
	}
	res.cpuMs = cpu1 - cpu0
	res.genCPUMs = selfCPUMs() - gen0
	if res.rssEndKB, err = procStatusKB(pid, "VmRSS"); err != nil {
		return nil, err
	}
	if spans != nil {
		if res.after, err = scrape(c.http, f.worker.url); err != nil {
			return nil, err
		}
		if res.gwAfter, err = scrape(c.http, f.gateway.url); err != nil {
			return nil, err
		}
	}
	for i, s := range sess {
		for k := warm[i] + len(sched[i]); k < len(s.pushes); k++ {
			s.push(c, k, o)
		}
	}

	for _, s := range sess {
		for _, r := range s.pushes {
			if !r.timed {
				continue
			}
			res.timedAttempted++
			if !r.ok {
				continue
			}
			res.committed++
			l := r.end.Sub(r.sched)
			res.lat = append(res.lat, ms(l))
			res.rtt = append(res.rtt, ms(r.end.Sub(r.start)))
			res.lag = append(res.lag, ms(r.start.Sub(r.sched)))
			res.wallMs = append(res.wallMs, r.reply.WallMs)
			if l <= w.limit {
				res.onTime++
			}
			if r.end.After(res.lastRecv) {
				res.lastRecv = r.end
			}
		}
	}

	// Read-back: the trajectory must repeat every pose the pushes
	// returned, bit for bit.
	for _, s := range sess {
		var tr trajReply
		err := c.do("GET", "/v1/sessions/"+s.id+"/trajectory?wait=1&optimized=1", nil, 200, &tr)
		if err != nil {
			res.final = append(res.final, nil)
			continue
		}
		// Without reads during the window, the traced run times repeated
		// optimized reads of the finished session (the first untimed).
		for r := 0; spans != nil && w.readEvery == 0 && r <= finalReads; r++ {
			start := time.Now()
			var again trajReply
			if c.do("GET", "/v1/sessions/"+s.id+"/trajectory?optimized=1", nil, 200, &again) == nil && r > 0 {
				res.optLat = append(res.optLat, ms(time.Since(start)))
			}
		}
		res.final = append(res.final, &tr)
		pushed := countPushed(s)
		if tr.Frames != pushed || len(tr.Trajectory) != pushed || len(tr.Optimized) != pushed || !allFinite(tr.Optimized) {
			o.fail("session %s: trajectory has %d frames (%d optimized), pushed %d", s.id, tr.Frames, len(tr.Optimized), pushed)
			continue
		}
		for k, fr := range tr.Trajectory {
			r := s.pushes[k]
			if !r.ok {
				continue
			}
			if fr.Index != k || !sameBits(fr.Pose, *r.reply.Pose) || !sameBits(fr.Delta, *r.reply.Delta) {
				o.fail("session %s frame %d: trajectory read-back differs from the push answer", s.id, k)
				break
			}
		}
	}
	if w.perLap > 0 {
		var lr loopsReply
		if err := c.do("GET", "/v1/sessions/"+sess[0].id+"/loops?wait=1", nil, 200, &lr); err == nil {
			res.loops = &lr
			checkLaps(&lr, countPushed(sess[0]), w.perLap, o)
		}
	}
	return res, nil
}

// ateSegment is the window of the segment ATE, in frames.
const ateSegment = 10

// segmentATE returns posegraph.ATE over every ateSegment-frame window,
// each anchored at its own first pose. Whole-trajectory ATE is dominated
// by when the largest single-pair error happened (everything after it
// inherits the offset), so it swings by several times between seeds;
// per-window values confine one bad pair to the windows that hold it.
func segmentATE(est, truth []geom.Transform) []float64 {
	var out []float64
	for lo := 0; lo+ateSegment <= len(est); lo++ {
		out = append(out, posegraph.ATE(est[lo:lo+ateSegment], truth[lo:lo+ateSegment]).RMSE)
	}
	return out
}

func countPushed(s *servedSession) int {
	n := 0
	for _, r := range s.pushes {
		if !r.start.IsZero() {
			n++
		}
	}
	return n
}

func allFinite(ts []wireTransform) bool {
	for _, t := range ts {
		if !t.finite() {
			return false
		}
	}
	return true
}

// checkLaps requires at least one accepted closure in every revisit lap
// the session drove at least half of.
func checkLaps(lr *loopsReply, frames, perLap int, o *ops) {
	for lap := 1; lap*perLap+perLap/2 <= frames; lap++ {
		found := false
		for _, cl := range lr.Closures {
			if cl.From >= lap*perLap && cl.From < (lap+1)*perLap {
				found = true
				break
			}
		}
		if !found {
			o.fail("slam-circuit: no loop closure accepted in revisit lap %d (frames %d-%d)", lap, lap*perLap, (lap+1)*perLap-1)
		}
	}
}

// accuracy scores every registered pair of a pass against ground truth:
// per-pair translational error in %, and the segment ATE in m of each
// session's optimized trajectory (the odometry itself when no loop
// closed).
func (res *passResult) accuracy() (terr, ate []float64) {
	for i, s := range res.sessions {
		tr := res.final[i]
		if tr == nil || len(tr.Optimized) != len(tr.Trajectory) {
			continue
		}
		est := make([]geom.Transform, len(tr.Optimized))
		for k, fr := range tr.Trajectory {
			est[k] = tr.Optimized[k].transform()
			if k > 0 {
				e := registration.EvaluatePair(fr.Delta.transform(), s.in.seq.GroundTruthDelta(k-1))
				terr = append(terr, e.TranslationalPct)
			}
		}
		ate = append(ate, segmentATE(est, s.in.seq.Poses[:len(est)])...)
	}
	return terr, ate
}

// crossCheck requires every delta two passes both registered to be
// bit-identical: with an exact search backend the served result may not
// depend on tracing, timing or load.
func crossCheck(a, b *passResult, o *ops) {
	for i := range a.sessions {
		ta, tb := a.final[i], b.final[i]
		if ta == nil || tb == nil {
			continue
		}
		n := min(len(ta.Trajectory), len(tb.Trajectory))
		for k := 0; k < n; k++ {
			if !sameBits(ta.Trajectory[k].Delta, tb.Trajectory[k].Delta) {
				o.fail("session %d frame %d: delta differs between the untraced and traced pass", i, k)
				break
			}
		}
	}
}
