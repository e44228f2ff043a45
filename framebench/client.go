package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tigris/internal/geom"
	"tigris/internal/obs"
)

// maxConns bounds the benchmark's connections to the system under test:
// the host has two CPUs, and more client connections would only add
// client-side contention.
const maxConns = 2

// ops counts the operations a run attempted and how many failed. An
// operation fails on a transport error, a non-2xx answer or a failed
// output check.
type ops struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	firstErrs         []string
}

func (o *ops) fail(format string, args ...any) {
	o.failed.Add(1)
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.firstErrs) < 8 {
		o.firstErrs = append(o.firstErrs, fmt.Sprintf(format, args...))
	}
}

// client issues the benchmark's HTTP operations against one base URL.
type client struct {
	base string
	http *http.Client
	ops  *ops
}

func newClient(base string, o *ops) *client {
	tr := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, DisableCompression: true}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: 90 * time.Second}, ops: o}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do runs one counted operation and decodes a JSON answer into out (when
// non-nil). A status other than want fails the operation.
func (c *client) do(method, path string, body []byte, want int, out any) error {
	c.ops.attempted.Add(1)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.ops.fail("%s %s: %v", method, path, err)
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.ops.fail("%s %s: %v", method, path, err)
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		c.ops.fail("%s %s: read body: %v", method, path, err)
		return err
	}
	if resp.StatusCode != want {
		err := fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, data)
		c.ops.fail("%v", err)
		return err
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			c.ops.fail("%s %s: decode: %v", method, path, err)
			return err
		}
	}
	return nil
}

// scrape reads a /metrics page without counting it as a workload
// operation (it is the benchmark's own observation).
func scrape(h *http.Client, base string) (map[string]float64, error) {
	resp, err := h.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return promSamples(resp.Body)
}

// wireTransform is the service's JSON rigid transform.
type wireTransform struct {
	R [9]float64 `json:"r"`
	T [3]float64 `json:"t"`
}

func (w wireTransform) transform() geom.Transform {
	return geom.Transform{R: geom.Mat3(w.R), T: geom.Vec3{X: w.T[0], Y: w.T[1], Z: w.T[2]}}
}

func (w wireTransform) finite() bool {
	for _, v := range append(w.R[:], w.T[:]...) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// sameBits reports bit-for-bit equality.
func sameBits(a, b wireTransform) bool {
	x, y := append(a.R[:], a.T[:]...), append(b.R[:], b.T[:]...)
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

func wireOf(t geom.Transform) wireTransform {
	return wireTransform{R: [9]float64(t.R), T: [3]float64{t.T.X, t.T.Y, t.T.Z}}
}

// pushReply is the answer to POST …/frames?wait=1.
type pushReply struct {
	Frame  int            `json:"frame"`
	Pose   *wireTransform `json:"pose"`
	Delta  *wireTransform `json:"delta"`
	WallMs float64        `json:"wall_ms"`
}

// trajReply is the answer to GET …/trajectory.
type trajReply struct {
	Frames     int `json:"frames"`
	Trajectory []struct {
		Index      int           `json:"index"`
		Delta      wireTransform `json:"delta"`
		Pose       wireTransform `json:"pose"`
		PrepMs     float64       `json:"prep_ms"`
		AlignMs    float64       `json:"align_ms"`
		Iterations int           `json:"icp_iterations"`
	} `json:"trajectory"`
	Optimized    []wireTransform `json:"optimized"`
	Optimization *struct {
		Iterations int `json:"iterations"`
	} `json:"optimization"`
}

// loopsReply is the answer to GET …/loops.
type loopsReply struct {
	Closures []struct {
		From  int           `json:"from"`
		To    int           `json:"to"`
		Delta wireTransform `json:"delta"`
	} `json:"closures"`
	Stats struct {
		Observed int64 `json:"observed"`
		Proposed int64 `json:"proposed"`
		Verified int64 `json:"verified"`
		Accepted int64 `json:"accepted"`
	} `json:"stats"`
}

// spanLog keeps the benchmark's own spans in memory; they are written
// out when the run ends. A nil *spanLog records nothing, which is how the
// timed runs stay untraced.
type spanLog struct {
	mu    sync.Mutex
	trace obs.TraceID
	next  uint64
	ev    []obs.SpanEvent
}

func newSpanLog() *spanLog { return &spanLog{trace: obs.NewTraceID()} }

// add records a completed span and returns its id (0 when not tracing).
func (s *spanLog) add(parent uint64, frame int, stage string, start time.Time, d time.Duration) uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	s.ev = append(s.ev, obs.SpanEvent{
		Trace: s.trace, Span: s.next, Parent: parent, Frame: int32(frame),
		Stage: stage, Start: start.UnixNano(), Dur: int64(d),
	})
	return s.next
}
