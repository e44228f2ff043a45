package main

import (
	"time"

	"tigris/internal/obs"
	"tigris/internal/search"
)

// stageSums returns the total time (ms) and observation count a
// program-published stage histogram gained over the traced pass.
type stageSums func(stage string) (sumMs, count float64)

// perFrame is a stage's time per committed frame.
func (st stageSums) perFrame(stage string, frames float64) float64 {
	s, _ := st(stage)
	return s / max(frames, 1)
}

// setLayers reports the per-layer metrics that both kinds of workload
// derive the same way: the stage times the program publishes, and the
// in-process layer replay. It returns the ledger with the stage layers
// added.
func setLayers(rep report, st stageSums, frames, wallMs float64, lr *layerReplay, iters []float64) *ledger {
	n := int(frames)
	pf := func(stage string) float64 { return st.perFrame(stage, frames) }
	prep, align := pf(obs.StagePrep), pf(obs.StageAlign)
	rep.set("stream.prep_ms", "ms", prep, n)
	rep.set("stream.align_ms", "ms", align, n)
	rep.set("stream.queue_wait_ms", "ms", pf(obs.StageQueueWaitPrep)+pf(obs.StageQueueWaitAlign), n)
	rep.set("stream.overlap", "ratio", (prep+align)*frames/max(wallMs, 1), n)

	l := &ledger{}
	for _, s := range [][3]string{
		{"features.normals_ms", obs.StageNormals},
		{"features.keypoints_ms", obs.StageKeypoints},
		{"features.descriptors_ms", obs.StageDescriptors},
		{"registration.kpce_ms", obs.StageKPCE},
		{"registration.rejection_ms", obs.StageRejection},
		{"registration.rpce_ms", obs.StageRPCE},
		{"registration.error_min_ms", obs.StageSolve},
		{"loop.observe_ms", obs.StageLoopObserve},
		{"loop.verify_ms", obs.StageLoopVerify},
	} {
		v := pf(s[1])
		rep.set(s[0], "ms", v, n)
		l.add(s[0], v)
	}
	fine := median(lr.fineMs)
	rep.set("features.fine_target_ms", "ms", fine, len(lr.fineMs))
	l.add("features.fine_target_ms", fine)

	pairs := float64(lr.pairs)
	rep.set("search.queries_per_frame", "count", float64(lr.queries)/pairs, lr.pairs)
	rep.set("search.nodes_per_frame", "count", float64(lr.nodes)/pairs, lr.pairs)
	rep.set("search.search_ms", "ms", lr.searchMs/pairs, lr.pairs)
	rep.set("search.build_ms", "ms", lr.buildMs/pairs, lr.pairs)
	var frameMs float64
	for i := range lr.alignMs {
		frameMs += lr.prepMs[i+1] + lr.fineMs[i] + lr.alignMs[i]
	}
	rep.set("search.share", "ratio", lr.searchMs/max(frameMs, 1e-9), lr.pairs)
	rep.set("search.allocs_per_frame", "count", median(lr.allocs), len(lr.allocs))
	rep.set("registration.icp_iterations", "count", mean(iters), len(iters))
	rep.set("registration.inlier_ratio", "ratio", float64(lr.inliers)/float64(max(lr.corr, 1)), lr.pairs)
	return l
}

// passWindow is how long one pass measures. The traced run measures an
// untraced and then a traced pass, each half as long as a timed run, so it
// takes about as long as one; their difference is the tracing overhead.
func passWindow(opt options) time.Duration {
	window := time.Duration(opt.seconds) * time.Second
	if opt.trace {
		return window / 2
	}
	return window
}

// runServed runs a served workload against a freshly launched gateway
// and worker.
func runServed(w *workload, opt options, o *ops, rep report, spans *spanLog) error {
	window := passWindow(opt)
	sched := schedule(opt.seed, w.sensors, w.period, window)
	inputs := make([]*sensorInput, w.sensors)
	for i := range inputs {
		_, total := w.span(len(sched[i]))
		seq := render(w.seq(opt.seed, i, total))
		frames, err := encode(seq.Frames)
		if err != nil {
			return err
		}
		inputs[i] = &sensorInput{seq: seq, frames: frames}
	}

	// Set-up: launch the fleet until the sessions exist; repeated, and
	// the last fleet is the one measured.
	var setupS []float64
	var f *fleet
	var c *client
	var sess []*servedSession
	defer func() {
		if f != nil {
			f.stop()
		}
	}()
	for r := 0; r < setups; r++ {
		if f != nil {
			deleteSessions(c, sess)
			c.close()
			f.stop()
			f = nil
		}
		start := time.Now()
		var err error
		if f, err = launchFleet(opt.binDir, opt.outDir); err != nil {
			return err
		}
		c = newClient(f.gateway.url, o)
		if sess, err = createSessions(c, w, inputs); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer c.close()

	a, err := runPass(w, f, c, sess, sched, window, o, nil)
	if err != nil {
		return err
	}
	deleteSessions(c, sess)
	if !opt.trace {
		terr, _ := a.accuracy()
		setE2E(rep, setupS, a.lat, a.committed, a.timedAttempted, a.onTime, a.lastRecv.Sub(a.firstSched),
			terr, a.cpuMs, a.rssKB, o)
		return nil
	}

	sessB, err := createSessions(c, w, inputs)
	if err != nil {
		return err
	}
	b, err := runPass(w, f, c, sessB, sched, window, o, spans)
	if err != nil {
		return err
	}
	deleteSessions(c, sessB)
	crossCheck(a, b, o)

	cfg, err := pipelineConfig(w.designPoint, search.BackendCanonical)
	if err != nil {
		return err
	}
	lr, err := replayLayers(inputs[0].frames, nil, cfg, spans)
	if err != nil {
		return err
	}
	// The in-process replay must reproduce the served deltas exactly.
	if b.final[0] != nil {
		o.attempted.Add(1)
		for k, d := range lr.deltas {
			if k+1 < len(b.final[0].Trajectory) && !sameBits(wireOf(d), b.final[0].Trajectory[k+1].Delta) {
				o.fail("frame %d: in-process Align delta differs from the served one", k+1)
				break
			}
		}
	}

	st := func(stage string) (float64, float64) {
		return histDelta(b.before, b.after, "tigris_stage_latency_seconds", stage)
	}
	_, frames := st(obs.StageFrame)
	wallMs := ms(b.lastRecv.Sub(b.firstSched))
	var iters []float64
	for _, tr := range b.final {
		if tr != nil && len(tr.Trajectory) > 1 {
			for _, fr := range tr.Trajectory[1:] {
				iters = append(iters, float64(fr.Iterations))
			}
		}
	}
	l := setLayers(rep, stageSums(st), frames, wallMs, lr, iters)

	var bytes float64
	for _, fr := range inputs[0].frames {
		bytes += float64(len(fr))
	}
	rep.set("cloud.parse_ms", "ms", median(lr.parseMs), len(lr.parseMs))
	rep.set("cloud.parse_allocs", "count", median(lr.parseAllocs), len(lr.parseAllocs))
	rep.set("cloud.bytes_per_frame", "bytes", bytes/float64(len(inputs[0].frames)), len(inputs[0].frames))

	// The served frame ledger: client round trip = gateway hop + worker
	// I/O (body read, parse, encode) + waits + the stages above.
	proxySum, proxyN := histDelta(b.gwBefore, b.gwAfter, "tigris_gateway_proxy_seconds", "frames")
	proxy := proxySum / max(proxyN, 1)
	l.ClientMs = mean(b.rtt)
	wall := mean(b.wallMs)
	frameSum, _ := st(obs.StageFrame)
	var loopMs float64
	for _, e := range l.Layers {
		if e.Name == "loop.observe_ms" || e.Name == "loop.verify_ms" {
			loopMs += e.Ms
		}
	}
	hop, io, wait := l.ClientMs-proxy, proxy-wall, wall-frameSum/max(frames, 1)-loopMs
	l.add("gateway.hop_ms", hop)
	l.add("serve.io_ms", io)
	l.add("serve.wait_ms", wait)
	rep.set("gateway.hop_ms", "ms", hop, len(b.rtt))
	rep.set("serve.io_ms", "ms", io, len(b.rtt))
	rep.set("serve.wait_ms", "ms", wait, len(b.rtt))
	rep.set("ledger.client_ms", "ms", l.ClientMs, len(b.rtt))
	rep.set("ledger.unattributed_ms", "ms", l.unattributed(), len(b.rtt))

	var candidates, accept float64
	if b.loops != nil {
		s := b.loops.Stats
		candidates = float64(s.Proposed) / float64(max(s.Observed, 1))
		accept = float64(s.Accepted) / float64(max(s.Verified, 1))
	}
	rep.set("loop.candidates_per_frame", "count", candidates, int(frames))
	rep.set("loop.accept_ratio", "ratio", accept, int(frames))

	// Replay the final pose-graph solve in-process: it must give the
	// served optimized poses bit for bit.
	if tr := b.final[0]; tr != nil && len(tr.Trajectory) > 0 {
		o.attempted.Add(1)
		poses, res, err := solveReplay(tr, b.loops, spans)
		if err != nil {
			o.fail("in-process pose-graph solve: %v", err)
		} else {
			for k, p := range poses {
				if k >= len(tr.Optimized) || !sameBits(wireOf(p), tr.Optimized[k]) {
					o.fail("pose %d: in-process optimized pose differs from the served one", k)
					break
				}
			}
		}
		rep.set("posegraph.solve_ms", "ms", ms(res.SolveTime), 1)
		rep.set("posegraph.nodes", "count", float64(len(poses)), 1)
		rep.set("posegraph.iterations", "count", float64(res.Iterations), 1)
	}
	_, ate := b.accuracy()
	rep.set("posegraph.ate_m", "m", median(ate), len(ate))
	rep.set("posegraph.read_p50_ms", "ms", median(b.optLat), len(b.optLat))
	rep.set("stream.retained_bytes_per_frame", "bytes", (b.rssEndKB-b.rssStartKB)*1024/float64(max(b.committed, 1)), b.committed)
	pa, pb := median(a.lat), median(b.lat)
	rep.set("obs.trace_overhead_pct", "%", (pb-pa)/pa*100, len(b.lat))
	rep.set("gen.send_lag_p95_ms", "ms", percentile(a.lag, 95), len(a.lag))
	rep.set("gen.cpu_ms", "ms", a.genCPUMs/float64(max(a.committed, 1)), a.committed)
	return nil
}

// runReplay runs replay-batch in this process.
func runReplay(opt options, o *ops, rep report, spans *spanLog) error {
	w := workloads["replay-batch"]
	window := passWindow(opt)
	seq := render(w.seq(opt.seed, 0, replayDrive))
	cfg, err := replayConfig()
	if err != nil {
		return err
	}

	var setupS []float64
	var s *replaySession
	for r := 0; r < setups; r++ {
		if s != nil {
			s.eng.Close()
		}
		start := time.Now()
		s = newReplaySession(cfg, seq, nil, o)
		setupS = append(setupS, time.Since(start).Seconds())
	}
	a, err := s.run(seq, window, o, nil)
	if err != nil {
		s.eng.Close()
		return err
	}
	s.eng.Close()
	if !opt.trace {
		terr, _ := a.accuracy(seq)
		setE2E(rep, setupS, a.lat, a.frames, a.frames, a.onTime, a.end.Sub(a.start),
			terr, a.cpuMs, a.rssKB, o)
		return nil
	}

	rec := obs.NewRecorder()
	sb := newReplaySession(cfg, seq, rec, o)
	// Only the timed pass's stages count: snapshot the warm-up pair out.
	warm := rec.Summaries()
	b, err := sb.run(seq, window, o, spans)
	if err != nil {
		sb.eng.Close()
		return err
	}
	res := sb.optimize(o)
	sb.eng.Close()
	sums := rec.Summaries()
	st := func(stage string) (float64, float64) {
		after, before := sums[stage], warm[stage]
		return ms(after.Mean)*float64(after.Count) - ms(before.Mean)*float64(before.Count),
			float64(after.Count - before.Count)
	}
	_, frames := st(obs.StageFrame)

	lr, err := replayLayers(nil, seq.Frames[:layerFrames], cfg, spans)
	if err != nil {
		return err
	}
	var iters []float64
	for _, fr := range b.traj.Frames[warmup:] {
		iters = append(iters, float64(fr.Reg.ICP.Iterations))
	}
	l := setLayers(rep, stageSums(st), frames, ms(b.end.Sub(b.start)), lr, iters)
	// The in-process frame's client time is push to commit; the queue
	// waits are its only layer outside the stages.
	qw := rep["stream.queue_wait_ms"].Value
	l.add("stream.queue_wait_ms", qw)
	l.ClientMs = mean(b.lat)
	rep.set("ledger.client_ms", "ms", l.ClientMs, len(b.lat))
	rep.set("ledger.unattributed_ms", "ms", l.unattributed(), len(b.lat))

	// Layers replay-batch bypasses: no wire codec, gateway, service or
	// loop closure.
	for _, n := range []string{"cloud.parse_ms", "gateway.hop_ms", "serve.io_ms", "serve.wait_ms", "gen.send_lag_p95_ms", "gen.cpu_ms"} {
		rep.set(n, "ms", 0, 0)
	}
	rep.set("cloud.parse_allocs", "count", 0, 0)
	rep.set("cloud.bytes_per_frame", "bytes", 0, 0)
	rep.set("loop.candidates_per_frame", "count", 0, 0)
	rep.set("loop.accept_ratio", "ratio", 0, 0)

	rep.set("posegraph.solve_ms", "ms", ms(res.SolveTime), 1)
	rep.set("posegraph.nodes", "count", float64(b.traj.Len()), 1)
	rep.set("posegraph.iterations", "count", float64(res.Iterations), 1)
	var optLat []float64
	for i := 0; i < replayOptReads; i++ {
		optLat = append(optLat, optimizeFixed(b.traj, o))
	}
	_, ate := b.accuracy(seq)
	rep.set("posegraph.ate_m", "m", median(ate), len(ate))
	rep.set("posegraph.read_p50_ms", "ms", median(optLat), len(optLat))
	rep.set("stream.retained_bytes_per_frame", "bytes", (b.rssEnd-b.rssStartKB)*1024/float64(max(b.frames, 1)), b.frames)
	fa := float64(a.frames) / a.end.Sub(a.start).Seconds()
	fb := float64(b.frames) / b.end.Sub(b.start).Seconds()
	rep.set("obs.trace_overhead_pct", "%", (fa/fb-1)*100, b.frames)
	return nil
}
