package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"tigris/internal/cloud"
	"tigris/internal/dse"
	"tigris/internal/geom"
	"tigris/internal/posegraph"
	"tigris/internal/registration"
	"tigris/internal/search"
)

// layerFrames is how many frames of a run's input the traced run replays
// through the layers in-process.
const layerFrames = 12

// pipelineConfig resolves a design point the way the service resolves a
// session request: the named point on the given backend, leaf sets sized
// for full frames, all CPUs.
func pipelineConfig(designPoint, backend string) (registration.PipelineConfig, error) {
	for _, dp := range dse.NamedDesignPoints() {
		if dp.Name == designPoint {
			cfg := dp.Config
			cfg.Searcher.Backend = backend
			cfg.Searcher.TopHeight = -1
			return cfg, cfg.Searcher.Validate()
		}
	}
	return registration.PipelineConfig{}, fmt.Errorf("unknown design point %q", designPoint)
}

// layerReplay holds what the in-process replay of the layers measured,
// per frame (pairs for the pair stages).
type layerReplay struct {
	parseMs, parseAllocs []float64
	prepMs, fineMs       []float64
	alignMs              []float64
	allocs               []float64
	queries, nodes       int64
	searchMs, buildMs    float64
	inliers, corr        int
	pairs                int
	deltas               []geom.Transform // deltas[k] registers frame k+1 onto k
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// replayLayers runs the frames through each layer's public entry point —
// cloud.Read, PrepareFrameSlab, PreparedFrame.FineTarget and
// registration.Align — in the order the streaming engine calls them,
// timing every call as a span. Frames given as clouds skip the parse.
func replayLayers(wire [][]byte, clouds []*cloud.Cloud, cfg registration.PipelineConfig, spans *spanLog) (*layerReplay, error) {
	n := max(len(wire), len(clouds))
	n = min(n, layerFrames)
	lr := &layerReplay{}
	var prev *registration.PreparedFrame
	for k := 0; k < n; k++ {
		var c *cloud.Cloud
		if wire != nil {
			a0 := mallocs()
			t0 := time.Now()
			var err error
			c, err = cloud.Read(bytes.NewReader(wire[k]))
			d := time.Since(t0)
			a1 := mallocs()
			if err != nil {
				return nil, fmt.Errorf("replay frame %d: %w", k, err)
			}
			spans.add(0, k, "cloud.Read", t0, d)
			lr.parseMs = append(lr.parseMs, ms(d))
			lr.parseAllocs = append(lr.parseAllocs, float64(a1-a0))
		} else {
			c = clouds[k]
		}

		a0 := mallocs()
		t0 := time.Now()
		pf := registration.PrepareFrameSlab(cloud.SlabFromCloud(c), cfg)
		d := time.Since(t0)
		spans.add(0, k, "registration.PrepareFrameSlab", t0, d)
		lr.prepMs = append(lr.prepMs, ms(d))
		if prev == nil {
			prev = pf
			continue
		}
		m := pf.SearchMetrics()
		before := prev.SearchMetrics()
		t0 = time.Now()
		prev.FineTarget(cfg)
		d = time.Since(t0)
		spans.add(0, k, "registration.FineTarget", t0, d)
		lr.fineMs = append(lr.fineMs, ms(d))
		t0 = time.Now()
		res := registration.Align(pf, prev, cfg)
		d = time.Since(t0)
		spans.add(0, k, "registration.Align", t0, d)
		lr.allocs = append(lr.allocs, float64(mallocs()-a0))
		lr.alignMs = append(lr.alignMs, ms(d))

		after := prev.SearchMetrics()
		m.Merge(search.Metrics{
			BuildTime:    after.BuildTime - before.BuildTime,
			SearchTime:   after.SearchTime - before.SearchTime,
			Queries:      after.Queries - before.Queries,
			NodesVisited: after.NodesVisited - before.NodesVisited,
		})
		lr.queries += m.Queries
		lr.nodes += m.NodesVisited
		lr.searchMs += ms(m.SearchTime + res.KDSearchTime)
		lr.buildMs += ms(m.BuildTime + res.KDBuildTime)
		lr.inliers += res.Inliers
		lr.corr += res.Correspondences
		lr.pairs++
		lr.deltas = append(lr.deltas, res.Transform)
		prev.Release()
		prev = pf
	}
	if prev != nil {
		prev.Release()
	}
	if lr.pairs == 0 {
		return nil, fmt.Errorf("layer replay needs at least two frames")
	}
	return lr, nil
}

// solveReplay rebuilds a session's pose graph from its served odometry
// and loop closures and optimizes it in-process, the way the engine does
// for ?optimized=1 (loop edges weighted 10, robust).
func solveReplay(tr *trajReply, lr *loopsReply, spans *spanLog) ([]geom.Transform, posegraph.Result, error) {
	deltas := make([]geom.Transform, 0, len(tr.Trajectory))
	for _, fr := range tr.Trajectory[1:] {
		deltas = append(deltas, fr.Delta.transform())
	}
	g := posegraph.FromOdometry(tr.Trajectory[0].Pose.transform(), deltas)
	if lr != nil {
		for _, cl := range lr.Closures {
			g.AddEdge(posegraph.Edge{I: cl.To, J: cl.From, Z: cl.Delta.transform(), TransWeight: 10, RotWeight: 10, Robust: true})
		}
	}
	t0 := time.Now()
	poses, res, err := g.Optimize(posegraph.Options{})
	spans.add(0, -1, "posegraph.Optimize", t0, time.Since(t0))
	return poses, res, err
}
